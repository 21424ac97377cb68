open Linalg

type counts = { solved : int; fallbacks : int; stops : int }

let sub_counts a b =
  {
    solved = a.solved - b.solved;
    fallbacks = a.fallbacks - b.fallbacks;
    stops = a.stops - b.stops;
  }

(* Counters live in the instance itself (not a global table keyed by
   name): campaign cells build controllers inside worker domains, and
   a shared Hashtbl there is a data race and a leak.  Atomics make the
   counts safely readable from the spawning domain after a cell
   returns. *)
type t = {
  ctrl : Sim.Policy.controller;
  n_solved : int Atomic.t;
  n_fallbacks : int Atomic.t;
  n_stops : int Atomic.t;
}

let next_id = Atomic.make 0

let create ?fallback ?(margin = 0.0) ~machine ~spec () =
  let spec = Spec.guard_band ~margin spec in
  let name =
    Printf.sprintf "pro-temp-online-%d" (Atomic.fetch_and_add next_id 1 + 1)
  in
  let n_solved = Atomic.make 0 in
  let n_fallbacks = Atomic.make 0 in
  let n_stops = Atomic.make 0 in
  let n_cores = machine.Sim.Machine.n_cores in
  let stop = Vec.zeros n_cores in
  (* The fallback table is served as a store image, built once here;
     the engine consumes the decision vector at the epoch boundary,
     so one per-instance buffer serves every fallback epoch.  An
     all-infeasible table never serves, like no table at all. *)
  let fallback =
    match fallback with
    | Some table when Table.core_count table <> None ->
        Some (Table_store.of_table table)
    | Some _ | None -> None
  in
  let fallback_buf = Vec.zeros n_cores in
  let fallback_frequencies obs =
    match fallback with
    | None -> None
    | Some store ->
        if
          Table_store.lookup_into store
            ~temperature:obs.Sim.Policy.max_core_temperature
            ~required:obs.Sim.Policy.required_frequency ~into:fallback_buf
        then Some fallback_buf
        else None
  in
  let profile_of obs =
    (* Sensors exist per core; unsensed nodes are bounded above by the
       hottest core (conservative under monotone dynamics). *)
    let worst = obs.Sim.Policy.max_core_temperature in
    let ambient = machine.Sim.Machine.thermal.Thermal.Rc_model.ambient in
    let t0 = Vec.create machine.Sim.Machine.n_nodes (Float.max worst ambient) in
    Array.iteri
      (fun c node -> t0.(node) <- obs.Sim.Policy.core_temperatures.(c))
      machine.Sim.Machine.core_nodes;
    t0
  in
  let decide obs =
    (* The degradation chain, in order: fresh solve, then the table's
       next-lower-feasible-column rule, then a safe stop. *)
    let built =
      Model.build_with_profile ~machine ~spec ~t0:(profile_of obs)
        ~ftarget:obs.Sim.Policy.required_frequency
    in
    match Model.solve built with
    | Model.Feasible s ->
        Atomic.incr n_solved;
        s.Model.frequencies
    | Model.Infeasible -> (
        match fallback_frequencies obs with
        | Some f ->
            Atomic.incr n_fallbacks;
            f
        | None ->
            Atomic.incr n_stops;
            stop)
  in
  {
    ctrl = { Sim.Policy.controller_name = name; decide };
    n_solved;
    n_fallbacks;
    n_stops;
  }

let controller t = t.ctrl

let counts t =
  {
    solved = Atomic.get t.n_solved;
    fallbacks = Atomic.get t.n_fallbacks;
    stops = Atomic.get t.n_stops;
  }

let solves t =
  let c = counts t in
  c.solved + c.fallbacks + c.stops

let outcome_probe t =
  let base = counts t in
  let final = ref None in
  let probe =
    Sim.Probe.make "online-outcomes"
      ~on_finish:(fun () -> final := Some (sub_counts (counts t) base))
  in
  ( probe,
    fun () ->
      match !final with
      | Some c -> c
      | None -> sub_counts (counts t) base )
