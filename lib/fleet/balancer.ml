(* Fleet-scope placement reuses the core-scope policy interface: a
   balancer is a [Sim.Policy.assignment] whose "cores" are chips and
   whose "temperatures" are the fleet's per-chip hottest-core shadow
   readings, plus a guard band deciding which chips are eligible at
   all.  Anything written against the core interface (coolest-first,
   headroom thresholds, class preferences) works unchanged at chip
   scope. *)

type t = {
  name : string;
  policy : Sim.Policy.assignment;
  guard : float;
}

let round_robin () =
  let next = ref 0 in
  {
    name = "round-robin";
    guard = neg_infinity;
    policy =
      {
        Sim.Policy.assignment_name = "round-robin";
        choose =
          (fun ~idle ~core_classes:_ ~core_temperatures:_ ->
            (* The [next mod n]-th candidate in ascending index order. *)
            let n = ref 0 in
            for k = 0 to Array.length idle - 1 do
              if idle.(k) then incr n
            done;
            if !n = 0 then None
            else begin
              let skip = ref (!next mod !n) and pick = ref 0 in
              while !skip > 0 || not idle.(!pick) do
                if idle.(!pick) then decr skip;
                incr pick
              done;
              incr next;
              Some !pick
            end);
      };
  }

let coolest_headroom ?(guard = 0.0) () =
  { name = "coolest-headroom"; policy = Sim.Policy.coolest_first; guard }
