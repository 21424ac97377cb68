(** Thermal-aware admission and load balancing across chips.

    The same policy interface the engine uses at core scope
    ({!Sim.Policy.assignment}) — applied at chip scope: [idle] is the
    fleet's eligibility mask, one cell per chip and [true] for a chip
    outside the guard band; [core_temperatures] the fleet's per-chip
    hottest-core readings, [core_classes] the chip classes.  The
    [guard] band decides eligibility: a chip whose thermal headroom
    [tmax - hottest_core] is at or below [guard] is in guard-band
    degradation, receives no new work, and (with migration on) has its
    queued tasks pulled back for re-routing. *)

type t = {
  name : string;
  policy : Sim.Policy.assignment;
      (** Picks among eligible chips; [None] holds the task for the
          next window. *)
  guard : float;
      (** Headroom (degrees C) at or below which a chip is ineligible.
          [neg_infinity] = every chip is always eligible. *)
}

val round_robin : unit -> t
(** Thermally-blind baseline: rotate across eligible chips (all chips
    — no guard band).  Stateful counter: build one per run. *)

val coolest_headroom : ?guard:float -> unit -> t
(** Route to the chip whose hottest core is coldest — coolest-first
    at chip scope (Chrobak et al., arXiv:0801.4238) in the fleet-level
    spirit of Hung et al.'s thermal-aware task allocation.  [guard]
    defaults to [0.0]: chips at or past their [tmax] are quarantined
    until they cool. *)
