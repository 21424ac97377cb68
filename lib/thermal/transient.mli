(** Transient thermal simulation.

    Two integrators over the same RC network:
    - {!simulate}: the paper's explicit-Euler recurrence (Eq. 1),
      which is what both the Pro-Temp offline models and the run-time
      simulator use; and
    - {!exact_propagator}/{!exact_step}: the exact solution of the
      continuous system via the matrix exponential, used as the ground
      truth in the Euler-accuracy ablation. *)

open Linalg

type trajectory = {
  times : Vec.t;  (** [steps + 1] sample instants, starting at 0. *)
  temperatures : Mat.t;  (** [(steps + 1) x n]; row [k] is [t_k]. *)
}

val simulate :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> power:(int -> Vec.t) ->
  trajectory
(** [simulate d ~t0 ~steps ~power] iterates Eq. 1; [power k] is the
    power vector applied during step [k] (from [t_k] to [t_{k+1}]). *)

val simulate_const :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> Vec.t -> trajectory

val peak : trajectory -> float
(** Highest temperature over all nodes and times. *)

val peak_const :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> Vec.t -> float
(** [peak_const d ~t0 ~steps p] is [peak (simulate_const d ~t0 ~steps
    p)], bit for bit, without the trajectory: it steps in two vectors
    and keeps a running maximum, so it allocates two vectors whatever
    [steps] is. *)

val node_series : trajectory -> int -> Vec.t
(** The time series of one node. *)

(** {1 Exact integration} *)

type propagator
(** Precomputed [e^{dt A_c}] and input response for one step size. *)

val exact_propagator : Rc_model.t -> dt:float -> propagator

val exact_step : propagator -> Vec.t -> Vec.t -> Vec.t
(** [exact_step prop t p]: the exact temperature after [dt] under
    constant power [p], from temperature [t]. *)

val exact_step_into :
  propagator -> Vec.t -> Vec.t -> scratch:Vec.t -> dst:Vec.t -> unit
(** In-place {!exact_step}: writes the result into [dst] using
    [scratch] as workspace.  [dst] and [scratch] must be distinct and
    must not alias the input temperature vector. *)

val exact_simulate :
  propagator -> t0:Vec.t -> steps:int -> power:(int -> Vec.t) -> trajectory
