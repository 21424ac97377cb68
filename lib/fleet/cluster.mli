(** The fleet-scale serving simulator: one arrival stream, N chips.

    A single trace is partitioned into routing windows (the exact
    partition of {!Workload.Trace.windows}); each window, the
    {!Balancer} reads every chip's hottest core and places the
    window's arrivals — route to coolest headroom, hold or migrate
    away from chips in guard-band degradation — and all chips then
    advance to the window boundary in parallel across a
    {!Parallel.Pool}.  Aggregate statistics are bit-identical at any
    domain count: routing is sequential between pool batches, chips
    share no mutable state, and per-chip stats merge in fixed chip
    order (DESIGN.md section 6j). *)

type config = {
  n_chips : int;
  window : float;
      (** Routing window, seconds — the balancer's reaction time.
          The trace is split into [ceil (horizon / window)] equal
          windows. *)
  drain_limit : float;
      (** Extra seconds past the horizon chips may run to finish
          their queues (the engine's drain semantics). *)
  migrate : bool;
      (** Pull queued (undispatched) tasks off chips whose headroom
          has fallen to the balancer's guard band and re-route them
          elsewhere. *)
  thermal_penalty : float;
      (** Shadow warming in degrees C per second of routed work:
          routing a task bumps the chip's *shadow* temperature so one
          window's tasks spread over the fleet instead of herding
          onto the single coolest chip.  Routing-only; the simulated
          physics never see it.  [0.0] disables. *)
}

val default_config : config
(** 4 chips, 0.1 s windows, 60 s drain, no migration, no penalty. *)

type result = {
  stats : Sim.Stats.t;
      (** Fleet-wide aggregate (fixed-order {!Sim.Stats.merge_into}
          of the per-chip stats): violation counts, waiting-time
          percentiles, energy, band residency across every chip. *)
  routed : int;
      (** Submission events, including re-submissions of migrated
          tasks. *)
  held : int;
      (** Hold events: a task deferred to the next window because no
          chip was eligible (or the policy declined).  One task held
          across many windows counts once per window. *)
  migrated : int;  (** Tasks pulled off guard-band chips. *)
  unfinished : int;  (** Tasks not completed by the drain deadline. *)
  chip_violations : int array;  (** Per-chip violating step counts. *)
  wall_clock : float;
}

val run :
  ?config:config ->
  ?domains:int ->
  balancer:Balancer.t ->
  chip:(int -> Chip.t) ->
  Workload.Trace.t ->
  result
(** [run ~balancer ~chip trace] builds [config.n_chips] chips via
    [chip i] (stateful controllers — e.g. [Sim.Fault.wrap]ped ones —
    must be constructed fresh inside this callback) and serves the
    trace through them.  Every chip must share [n_cores] and [tmax]
    (enforced by the stats merge).  [domains] sizes the pool as in
    {!Parallel.Pool.with_pool}; the result is bit-identical for any
    value.  Leftover held tasks are force-routed to the
    most-headroom chip at the end of the stream, so every task is
    eventually submitted.  Raises [Invalid_argument] on [n_chips <= 0],
    a window that is not positive and finite, a negative or non-finite
    [thermal_penalty], or a non-finite [drain_limit]. *)
