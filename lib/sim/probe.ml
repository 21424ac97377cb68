open Linalg

type sample = { at : float; core_temperatures : Vec.t }

type epoch_view = {
  time : float;
  observation : Policy.observation;
  frequencies : Vec.t;
}

type step_view = {
  mutable at : float;
  dt : float;
  mutable temperatures : Vec.t;
  core_nodes : int array;
  mutable chip_power : float;
}

type t = {
  name : string;
  on_epoch : (epoch_view -> unit) option;
  on_step : (step_view -> unit) option;
  on_finish : (unit -> unit) option;
}

let make ?on_epoch ?on_step ?on_finish name =
  if on_epoch = None && on_step = None && on_finish = None then
    invalid_arg "Probe.make: a probe needs at least one callback";
  { name; on_epoch; on_step; on_finish }

let hottest_core v =
  let t = v.temperatures and nodes = v.core_nodes in
  let h = ref t.(Array.unsafe_get nodes 0) in
  for i = 1 to Array.length nodes - 1 do
    let x = t.(Array.unsafe_get nodes i) in
    if x > !h then h := x
  done;
  !h

let recorder () =
  let acc = ref [] in
  let probe =
    make "recorder"
      ~on_epoch:(fun v ->
        (* [observation.core_temperatures] is freshly allocated by the
           engine's observe step, so retaining it is safe — and
           matches what the old [record_series] path stored. *)
        acc :=
          { at = v.time; core_temperatures = v.observation.Policy.core_temperatures }
          :: !acc)
  in
  (probe, fun () -> Array.of_list (List.rev !acc))

let frequency_log () =
  let acc = ref [] in
  let probe =
    make "frequency-log"
      ~on_epoch:(fun v -> acc := (v.time, Vec.copy v.frequencies) :: !acc)
  in
  (probe, fun () -> Array.of_list (List.rev !acc))

let stats ~n_cores ~tmax () =
  let s = Stats.create ~n_cores ~tmax () in
  let probe =
    make "stats"
      ~on_step:(fun v ->
        Stats.record_step_nodes s ~dt:v.dt ~temperatures:v.temperatures
          ~nodes:v.core_nodes;
        (* Per-step accumulation in the same order as the engine's own
           energy integration, so the figures agree exactly. *)
        Stats.record_power s ~dt:v.dt v.chip_power)
  in
  (probe, s)

type audit = {
  audited_steps : int;
  violating_steps : int;
  worst_excess : float;
  first_violation : float option;
}

let thermal_audit ~tmax () =
  if not (Float.is_finite tmax) then
    invalid_arg "Probe.thermal_audit: non-finite tmax";
  let steps = ref 0 in
  let violating = ref 0 in
  let worst = ref 0.0 in
  let first = ref None in
  let probe =
    make "thermal-audit"
      ~on_step:(fun v ->
        incr steps;
        let h = hottest_core v in
        if h > tmax then begin
          incr violating;
          if h -. tmax > !worst then worst := h -. tmax;
          if !first = None then first := Some v.at
        end)
  in
  ( probe,
    fun () ->
      {
        audited_steps = !steps;
        violating_steps = !violating;
        worst_excess = !worst;
        first_violation = !first;
      } )

let jsonl ?(every = 1) oc =
  if every < 1 then invalid_arg "Probe.jsonl: every must be >= 1";
  let k = ref 0 in
  make "jsonl"
    ~on_step:(fun v ->
      if !k mod every = 0 then
        Printf.fprintf oc "{\"t\":%.6f,\"hottest\":%.4f,\"power\":%.4f}\n" v.at
          (hottest_core v) v.chip_power;
      incr k)
    ~on_finish:(fun () -> flush oc)
