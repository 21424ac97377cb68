(* The fleet orchestrator: one arrival stream, N chips, a balancer in
   front.  Time advances in routing windows — the exact partition
   [Workload.Trace.windows] produces — and within each window the
   sequence is: read every chip's hottest core, pull queued work off
   guard-band chips (migration), route the backlog and then the
   window's arrivals through the balancer, and advance all chips to
   the window boundary across the domain pool.

   Determinism at any domain count: routing is sequential (it happens
   between pool batches, over a shadow temperature array snapshotted
   in chip order), chips never share mutable state, and the final
   stats merge runs in fixed chip order — so the aggregate is
   bit-identical however many domains advanced the chips. *)

type config = {
  n_chips : int;
  window : float;
      (* Routing window, seconds: how often the balancer re-reads chip
         temperatures and places the next slice of arrivals. *)
  drain_limit : float;
  migrate : bool;
      (* Pull queued (undispatched) tasks off chips whose headroom is
         at or below the balancer's guard and re-route them. *)
  thermal_penalty : float;
      (* Shadow warming, degrees C per second of routed work: routing
         bumps the chip's shadow temperature so one window's tasks
         spread across the fleet instead of herding onto whichever
         chip was coolest at the snapshot.  Affects routing only — the
         plant's physics are untouched. *)
}

let default_config =
  {
    n_chips = 4;
    window = 0.1;
    drain_limit = 60.0;
    migrate = false;
    thermal_penalty = 0.0;
  }

type result = {
  stats : Sim.Stats.t;
  routed : int;
  held : int;
  migrated : int;
  unfinished : int;
  chip_violations : int array;
  wall_clock : float;
}

(* Snapshot every chip's hottest core into [shadow] — the per-window
   read the balancer routes against; listed in lint.manifest. *)
let shadow_refresh chips shadow =
  for i = 0 to Array.length chips - 1 do
    Array.unsafe_set shadow i
      (Chip.max_core_temperature (Array.unsafe_get chips i))
  done

let run ?(config = default_config) ?domains ~balancer ~chip trace =
  let started = Unix.gettimeofday () in
  if config.n_chips <= 0 then invalid_arg "Cluster.run: need at least one chip";
  (* Phrased so NaN fails too; an infinite window or drain limit would
     never end the run. *)
  if not (config.window > 0.0 && Float.is_finite config.window) then
    invalid_arg "Cluster.run: window must be positive and finite";
  if not (config.thermal_penalty >= 0.0 && Float.is_finite config.thermal_penalty)
  then invalid_arg "Cluster.run: thermal penalty must be non-negative and finite";
  if not (Float.is_finite config.drain_limit) then
    invalid_arg "Cluster.run: non-finite drain limit";
  let n = config.n_chips in
  let chips = Array.init n chip in
  let tmax = Chip.tmax chips.(0) in
  let shadow = Array.make n 0.0 in
  let chip_classes = Array.make n 0 in
  let routed = ref 0 and held = ref 0 and migrated = ref 0 in
  (* Tasks awaiting a chip: guard-band migrations plus balancer holds,
     re-sorted by arrival before each window so per-chip submission
     order stays non-decreasing. *)
  let backlog = ref [] in
  (* The balancer's candidate mask: [eligible.(i)] is whether chip [i]
     is outside the guard band at its current shadow reading, and
     [n_eligible] counts the [true] cells.  Shadows only move in
     [refresh] and [submit_to], so those two keep the mask exact
     instead of every routed task rebuilding it. *)
  let eligible = Array.make n false in
  let n_eligible = ref 0 in
  let is_eligible i = tmax -. shadow.(i) > balancer.Balancer.guard in
  let refresh () =
    shadow_refresh chips shadow;
    n_eligible := 0;
    for i = 0 to n - 1 do
      let e = is_eligible i in
      eligible.(i) <- e;
      if e then incr n_eligible
    done
  in
  let submit_to i ~arrival ~work =
    Chip.submit chips.(i) ~arrival ~work;
    shadow.(i) <- shadow.(i) +. (config.thermal_penalty *. work);
    (* The bump can push the chip into the guard band. *)
    let e = is_eligible i in
    if e <> eligible.(i) then begin
      eligible.(i) <- e;
      if e then incr n_eligible else decr n_eligible
    end;
    incr routed
  in
  let hold ~arrival ~work =
    backlog := (arrival, work) :: !backlog;
    incr held
  in
  let route_one ~arrival ~work =
    if !n_eligible = 0 then hold ~arrival ~work
    else
      match
        balancer.Balancer.policy.Sim.Policy.choose ~idle:eligible
          ~core_classes:chip_classes ~core_temperatures:shadow
      with
      | Some i -> submit_to i ~arrival ~work
      | None -> hold ~arrival ~work
  in
  let horizon = trace.Workload.Trace.horizon in
  let k =
    Stdlib.max 1 (int_of_float (Float.ceil (horizon /. config.window)))
  in
  let slices = Workload.Trace.windows trace ~k in
  Parallel.Pool.with_pool ?domains (fun pool ->
      for w = 0 to k - 1 do
        refresh ();
        if config.migrate then
          for i = 0 to n - 1 do
            if tmax -. shadow.(i) <= balancer.Balancer.guard then begin
              let taken = Chip.take_queued chips.(i) ~max:max_int in
              migrated := !migrated + Array.length taken;
              routed := !routed - Array.length taken;
              Array.iter (fun task -> backlog := task :: !backlog) taken
            end
          done;
        (* Backlog first: its arrivals predate this window's, which
           keeps every chip's submission order non-decreasing (the
           chip's arrival gate requires it). *)
        let pending =
          List.sort
            (fun (a, _) (b, _) -> Float.compare a b)
            (List.rev !backlog)
        in
        backlog := [];
        List.iter (fun (arrival, work) -> route_one ~arrival ~work) pending;
        Array.iter
          (fun task ->
            route_one ~arrival:task.Workload.Task.arrival
              ~work:task.Workload.Task.work)
          slices.(w);
        let until = horizon *. float_of_int (w + 1) /. float_of_int k in
        ignore
          (Parallel.Pool.map_rows pool
             (fun i -> Chip.advance chips.(i) ~until)
             n)
      done;
      (* End of the stream: whatever the balancer kept holding must
         land somewhere — force it onto the chip with the most
         headroom, guard band or not. *)
      (match !backlog with
      | [] -> ()
      | leftovers ->
          refresh ();
          List.iter
            (fun (arrival, work) ->
              let best = ref 0 in
              for i = 1 to n - 1 do
                if shadow.(i) < shadow.(!best) then best := i
              done;
              submit_to !best ~arrival ~work)
            (List.sort (fun (a, _) (b, _) -> Float.compare a b)
               (List.rev leftovers));
          backlog := []);
      let deadline = horizon +. config.drain_limit in
      ignore
        (Parallel.Pool.map_rows pool
           (fun i -> Chip.drain chips.(i) ~deadline)
           n));
  Array.iter Chip.finalize chips;
  let aggregate =
    Sim.Stats.create ~n_cores:(Chip.n_cores chips.(0)) ~tmax ()
  in
  Array.iter (fun c -> Sim.Stats.merge_into ~into:aggregate (Chip.stats c)) chips;
  let unfinished =
    Array.fold_left (fun acc c -> acc + Chip.unfinished c) 0 chips
  in
  {
    stats = aggregate;
    routed = !routed;
    held = !held;
    migrated = !migrated;
    unfinished;
    chip_violations =
      Array.map (fun c -> Sim.Stats.violation_steps (Chip.stats c)) chips;
    wall_clock = Unix.gettimeofday () -. started;
  }
