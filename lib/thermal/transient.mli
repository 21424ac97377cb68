(** Transient thermal simulation: the paper's explicit-Euler
    recurrence (Eq. 1) over the RC network, which is what both the
    Pro-Temp offline models and the run-time simulator use. *)

open Linalg

type trajectory = {
  times : Vec.t;  (** [steps + 1] sample instants, starting at 0. *)
  temperatures : Mat.t;  (** [(steps + 1) x n]; row [k] is [t_k]. *)
}

val simulate :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> power:(int -> Vec.t) ->
  trajectory
(** [simulate d ~t0 ~steps ~power] iterates Eq. 1; [power k] is the
    power vector applied during step [k] (from [t_k] to [t_{k+1}]).
    It steps on a {!Rc_model.stepper} compiled once per call, so on
    finite inputs every entry is bit-identical to iterating
    {!Rc_model.step_temperature}. *)

val simulate_const :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> Vec.t -> trajectory

val peak : trajectory -> float
(** Highest temperature over all nodes and times. *)

val peak_const :
  Rc_model.discrete -> t0:Vec.t -> steps:int -> Vec.t -> float
(** [peak_const d ~t0 ~steps p] is [peak (simulate_const d ~t0 ~steps
    p)], bit for bit, without the trajectory: it steps in two vectors
    and keeps a running maximum, so it allocates two vectors and one
    compiled stepper whatever [steps] is. *)

val node_series : trajectory -> int -> Vec.t
(** The time series of one node. *)
