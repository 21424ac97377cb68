open Linalg

let window_peak ~machine ~dfs_period ~tstart ~frequencies =
  let steps = Sim.Machine.window_steps machine ~period:dfs_period in
  if steps < 1 then invalid_arg "Guarantee.window_peak: window too short";
  if Vec.dim frequencies <> machine.Sim.Machine.n_cores then
    invalid_arg "Guarantee.window_peak: need one frequency per core";
  let power =
    Sim.Machine.power_vector machine ~frequencies
      ~busy:(Array.make machine.Sim.Machine.n_cores true)
  in
  let t0 = Vec.create machine.Sim.Machine.n_nodes tstart in
  Thermal.Transient.peak_const machine.Sim.Machine.thermal ~t0 ~steps power

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
