(* Fixtures for the guarantee tests: a certified table built without
   the optimizer, and the guarantee measured as a function of fault
   severity.  Both are assembled from product calls
   ({!Protemp.Guarantee.window_peak}, {!Sim.Engine.run} with a
   {!Sim.Probe.thermal_audit}); the product itself builds tables with
   {!Protemp.Dense_table} and audits them with
   {!Protemp.Guarantee.audit_table}. *)

open Linalg
open Protemp

(* Cell [(tstart, ftarget)] holds the uniform per-core vector at
   [ftarget] when its window peak from [tstart] stays at or below
   [spec.tmax - margin], and is [Infeasible] otherwise: every stored
   entry carries the audit's simulate-and-check certificate, which
   makes this the cheap way to build guard-banded ([margin > 0])
   tables for fault experiments.  [margin] goes through
   {!Spec.guard_band}, which refuses a negative, non-finite or
   envelope-swallowing margin. *)
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
              Guarantee.window_peak ~machine ~dfs_period:spec.Spec.dfs_period
                ~tstart ~frequencies
            in
            if peak <= cap then Table.Frequencies frequencies
            else Table.Infeasible)
          ftargets)
      tstarts
  in
  Table.make ~tstarts ~ftargets cells

type severity_point = {
  severity : float;  (* the value handed to [faults_of] *)
  thermal : Sim.Probe.audit;  (* step-level tmax audit of the faulty run *)
  unfinished : int;  (* tasks left over: the throughput cost *)
  mean_waiting : float;  (* seconds: the cost a guard band pays *)
}

(* For each severity, a fresh controller wrapped in [faults_of
   severity] serves [trace] (first-idle dispatch, the engine's default
   configuration) under a thermal audit at the default tmax.  A
   guarantee-carrying controller shows no violating step at severity
   [0.0], and once guard-banded none at any severity its margin
   dominates. *)
let violations_under_faults ~machine ~controller ~trace ~faults_of ~severities
    () =
  let config = Sim.Engine.default_config in
  Array.map
    (fun severity ->
      let ctrl = Sim.Fault.wrap ~faults:(faults_of severity) (controller ()) in
      let probe, audit =
        Sim.Probe.thermal_audit ~tmax:config.Sim.Engine.tmax ()
      in
      let r =
        Sim.Engine.run ~config ~probes:[ probe ] machine ctrl
          Sim.Policy.first_idle trace
      in
      {
        severity;
        thermal = audit ();
        unfinished = r.Sim.Engine.unfinished;
        mean_waiting = Sim.Stats.mean_waiting r.Sim.Engine.stats;
      })
    severities
