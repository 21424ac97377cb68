(** Specification of a Pro-Temp optimization instance.

    Gathers the knobs of the paper's convex models: the temperature
    cap, the DFS window the frequencies must survive, whether all
    cores share one frequency (Sec. 5.3's uniform variant) or are
    free (variable), and the optional spatial-gradient term of
    Eqs. 4-5. *)

type variant =
  | Variable  (** Per-core frequencies (the paper's main scheme). *)
  | Uniform  (** One frequency for all cores (Sec. 5.3 baseline). *)

type gradient = {
  weight : float;
      (** Weight of the gradient term added to the power objective
          (Eq. 5). *)
  cap : float option;
      (** Optional hard bound [tgrad] on the spread (Eq. 4). *)
}

type t = {
  tmax : float;  (** Maximum allowed temperature at every step. *)
  dfs_period : float;  (** Length of the window to guarantee. *)
  constraint_stride : int;
      (** Enforce the temperature cap every [stride]-th thermal step
          (1 = every step, the paper's formulation).  The final step
          of the window is always constrained. *)
  variant : variant;
  gradient : gradient option;
}

val default : t
(** [tmax = 100], [dfs_period = 0.1], stride 1, [Variable], no
    gradient term — the paper's Eq. 3 setup. *)

val with_gradient : ?cap:float -> ?weight:float -> t -> t
(** Enable the Eq. 4-5 gradient extension (default weight 1.0). *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical values: a [tmax],
    [dfs_period] or gradient cap that is not finite and positive, a
    gradient weight that is not finite and non-negative (NaN and
    infinities included), or a stride below 1. *)

val guard_band : margin:float -> t -> t
(** [spec] with [tmax] tightened by [margin] degrees: the envelope a
    guard-banded table or controller certifies against.  Raises
    [Invalid_argument] when [margin] is negative, not finite (NaN
    included) or at least [tmax].  [margin = 0.0] returns [tmax]
    unchanged, bit for bit. *)
