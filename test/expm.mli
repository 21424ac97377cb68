(** Matrix exponential by scaling-and-squaring with Padé approximation.

    Used by {!Transient_reference} to compute the exact transient
    response of the linear thermal system [dT/dt = A T + B p], the
    ground truth the paper's explicit-Euler recurrence is checked
    against. *)

open Linalg

val expm : Mat.t -> Mat.t
(** [expm a] is [e^a] for a square matrix, via [6/6] Padé with
    scaling-and-squaring. *)

val phi1 : Mat.t -> Mat.t
(** [phi1 a] is the phi-function [phi_1(a) = a^{-1}(e^a - I)], extended
    continuously at singular [a] by its Taylor series.  With it, the
    exact step of [dT/dt = A T + u] over time [h] is
    [T(h) = e^{hA} T(0) + h * phi_1(hA) u]. *)
