open Linalg

let window_peak ~machine ~dfs_period ~tstart ~frequencies =
  let thermal = machine.Sim.Machine.thermal in
  let dt = thermal.Thermal.Rc_model.dt in
  let steps = int_of_float (Float.round (dfs_period /. dt)) in
  if steps < 1 then invalid_arg "Guarantee.window_peak: window too short";
  if Vec.dim frequencies <> machine.Sim.Machine.n_cores then
    invalid_arg "Guarantee.window_peak: need one frequency per core";
  let power =
    Sim.Machine.power_vector machine ~frequencies
      ~busy:(Array.make machine.Sim.Machine.n_cores true)
  in
  let t0 = Vec.create machine.Sim.Machine.n_nodes tstart in
  Thermal.Transient.peak_const thermal ~t0 ~steps power

let uniform_table ~machine ~(spec : Spec.t) ?(margin = 0.0) ~tstarts ~ftargets
    () =
  let cap = (Spec.guard_band ~margin spec).Spec.tmax in
  let n_cores = machine.Sim.Machine.n_cores in
  let cells =
    Array.map
      (fun tstart ->
        Array.map
          (fun ftarget ->
            let frequencies = Vec.create n_cores ftarget in
            let peak =
              window_peak ~machine ~dfs_period:spec.Spec.dfs_period ~tstart
                ~frequencies
            in
            if peak <= cap then Table.Frequencies frequencies
            else Table.Infeasible)
          ftargets)
      tstarts
  in
  Table.make ~tstarts ~ftargets cells

type audit = {
  cells_checked : int;
  worst_margin : float;
  worst_cell : (float * float) option;
}

let audit_table ~machine ~(spec : Spec.t) table =
  let tstarts = Table.tstarts table in
  let ftargets = Table.ftargets table in
  let checked = ref 0 in
  let worst = ref infinity in
  let worst_cell = ref None in
  Array.iteri
    (fun i tstart ->
      Array.iteri
        (fun j ftarget ->
          match Table.cell table i j with
          | Table.Infeasible -> ()
          | Table.Frequencies frequencies ->
              incr checked;
              let peak =
                window_peak ~machine ~dfs_period:spec.Spec.dfs_period
                  ~tstart ~frequencies
              in
              let margin = spec.Spec.tmax -. peak in
              if margin < !worst then begin
                worst := margin;
                worst_cell := Some (tstart, ftarget)
              end)
        ftargets)
    tstarts;
  { cells_checked = !checked; worst_margin = !worst; worst_cell = !worst_cell }

type severity_point = {
  severity : float;
  thermal : Sim.Probe.audit;
  unfinished : int;
  mean_waiting : float;
}

let violations_under_faults ?(config = Sim.Engine.default_config)
    ?(assignment = Sim.Policy.first_idle) ~machine ~controller ~trace
    ~faults_of ~severities () =
  Array.map
    (fun severity ->
      let ctrl = Sim.Fault.wrap ~faults:(faults_of severity) (controller ()) in
      let probe, audit = Sim.Probe.thermal_audit ~tmax:config.Sim.Engine.tmax () in
      let r = Sim.Engine.run ~config ~probes:[ probe ] machine ctrl assignment trace in
      {
        severity;
        thermal = audit ();
        unfinished = r.Sim.Engine.unfinished;
        mean_waiting = Sim.Stats.mean_waiting r.Sim.Engine.stats;
      })
    severities
