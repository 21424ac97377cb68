(* [compare --base A.json... --change B.json...]: for each workload and
   end-to-end metric, the two sides' medians and quartiles, the delta,
   and a verdict by the bounds in BENCHMARK.json.

   A result file holds one run (as written by [run --out]) or a list of
   runs.  Runs pair up in the order given, so list the two sides in the
   order they alternated.  Verdicts:
   - improved: the change wins at least 9 of 10 pairs (ties count for
     neither) and the medians differ by more than the base's own
     quartile spread;
   - regressed: the change's median is worse by more than the bound;
   - unresolved: the base's quartile spread is wider than the bound,
     unless every change run beats every base run;
   - within bound: otherwise.
   For runs of one seed on both sides it also reports whether the
   simulated outputs (fill counts, violations, waiting percentiles,
   energy, ...) are identical, as a speed-only change must leave them.
   Exits 1 when anything regressed or a change run failed its checks. *)

type bound = { name : string; better : [ `Lower | `Higher ]; bound : float }

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match Json.parse text with
      | v -> v
      | exception Json.Parse_error msg ->
          failwith (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> failwith msg

let bounds path =
  match Json.member "end_to_end" (read_json path) with
  | Some (Json.List l) ->
      List.map
        (fun e ->
          let field k f =
            match Option.bind (Json.member k e) f with
            | Some v -> v
            | None -> failwith (Printf.sprintf "%s: end_to_end entry lacks %s" path k)
          in
          {
            name = field "name" Json.to_str;
            better =
              (if field "better" Json.to_str = "higher" then `Higher else `Lower);
            bound = field "bound" Json.to_float;
          })
        l
  | _ -> failwith (path ^ ": no end_to_end list")

type run = {
  workload : string;
  seed : int;
  correct : bool;
  failed : int;
  values : (string * float) list;
  simulated : Json.t option;
      (** The deterministic outputs: a speed-only change keeps them
          identical for the same seed. *)
}

let runs_of path =
  let one v =
    let str k = Option.bind (Json.member k v) Json.to_str in
    let values =
      match Json.member "metrics" v with
      | Some (Json.Object kvs) ->
          List.filter_map
            (fun (k, m) ->
              Option.map (fun x -> (k, x))
                (Option.bind (Json.member "value" m) Json.to_float))
            kvs
      | _ -> []
    in
    let int k = match Json.member k v with Some (Json.Int n) -> n | _ -> 0 in
    {
      workload = Option.value ~default:"?" (str "workload");
      seed = int "seed";
      correct = Json.member "correct" v = Some (Json.Bool true);
      failed = int "failed";
      values;
      simulated = Option.bind (Json.member "detail" v) (Json.member "simulated");
    }
  in
  match read_json path with
  | Json.List l -> List.map one l
  | v -> [ one v ]

(* [better b x y]: x reads better than y under direction [b]. *)
let better b x y = match b with `Lower -> x < y | `Higher -> x > y

let verdict (b : bound) base change =
  let mb = Summary.median base and mc = Summary.median change in
  let q1, q3 = Summary.quartiles base in
  let spread = (q3 -. q1) /. Float.abs mb in
  let pairs = Stdlib.min (Array.length base) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.better change.(i) base.(i) then incr wins
  done;
  let worse_by =
    match b.better with
    | `Lower -> (mc -. mb) /. Float.abs mb
    | `Higher -> (mb -. mc) /. Float.abs mb
  in
  let dominates =
    Array.for_all (fun c -> Array.for_all (fun x -> better b.better c x) base) change
  in
  if
    pairs > 0
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && better b.better mc mb
    && Float.abs (mc -. mb) > q3 -. q1
  then "improved"
  else if worse_by > b.bound then "regressed"
  else if spread > b.bound && not dominates then "unresolved"
  else "within bound"

let parse_args args =
  let base = ref [] and change = ref [] and bench = ref "BENCHMARK.json" in
  let rec go side = function
    | [] -> ()
    | "--base" :: rest -> go `Base rest
    | "--change" :: rest -> go `Change rest
    | "--benchmark" :: file :: rest ->
        bench := file;
        go side rest
    | file :: rest ->
        (match side with
        | `Base -> base := file :: !base
        | `Change -> change := file :: !change
        | `None -> failwith ("compare: file before --base/--change: " ^ file));
        go side rest
  in
  go `None args;
  (List.rev !base, List.rev !change, !bench)

let main args =
  match parse_args args with
  | exception Failure msg ->
      prerr_endline msg;
      2
  | [], _, _ | _, [], _ ->
      prerr_endline "compare: need --base FILE... and --change FILE...";
      2
  | base_files, change_files, bench -> (
      match
        ( bounds bench,
          List.concat_map runs_of base_files,
          List.concat_map runs_of change_files )
      with
      | exception Failure msg ->
          prerr_endline ("compare: " ^ msg);
          2
      | bounds, base, change ->
          let workloads =
            List.sort_uniq String.compare
              (List.map (fun r -> r.workload) (base @ change))
          in
          let bad = ref false in
          Printf.printf "%-16s %-18s %28s %28s %9s  %s\n" "workload" "metric"
            "base median [q1, q3]" "change median [q1, q3]" "delta" "verdict";
          List.iter
            (fun w ->
              let side runs = List.filter (fun r -> r.workload = w) runs in
              let b = side base and c = side change in
              let failures l =
                List.length (List.filter (fun r -> not r.correct) l)
              in
              if failures c > 0 then bad := true;
              List.iter
                (fun bd ->
                  let values l =
                    Array.of_list
                      (List.filter_map (fun r -> List.assoc_opt bd.name r.values) l)
                  in
                  let bv = values b and cv = values c in
                  if Array.length bv > 0 && Array.length cv > 0 then begin
                    let show v =
                      let q1, q3 = Summary.quartiles v in
                      Printf.sprintf "%.6g [%.6g, %.6g]" (Summary.median v) q1 q3
                    in
                    let mb = Summary.median bv and mc = Summary.median cv in
                    let v = verdict bd bv cv in
                    if v = "regressed" then bad := true;
                    Printf.printf "%-16s %-18s %28s %28s %+8.2f%%  %s\n" w bd.name
                      (show bv) (show cv)
                      (100.0 *. (mc -. mb) /. Float.abs mb)
                      v
                  end)
                bounds;
              let runs l =
                Printf.sprintf "%d, %d incorrect, %d ops failed"
                  (List.length l) (failures l)
                  (List.fold_left (fun acc r -> acc + r.failed) 0 l)
              in
              Printf.printf "%-16s %-18s %28s %28s\n" w "runs" (runs b) (runs c);
              let shared =
                List.filter_map
                  (fun rb ->
                    List.find_opt (fun rc -> rc.seed = rb.seed) c
                    |> Option.map (fun rc -> rb.simulated = rc.simulated))
                  b
              in
              if shared <> [] then
                Printf.printf "%-16s %-18s identical on %d of %d shared seeds\n" w
                  "simulated outputs"
                  (List.length (List.filter Fun.id shared))
                  (List.length shared))
            workloads;
          if !bad then 1 else 0)
