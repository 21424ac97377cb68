(** Composable observers of a simulation run.

    The engine used to hard-code its instrumentation: one
    [record_series] flag controlling a temperature series and a
    frequency log baked into the result.  A probe is instead an
    independent observer with optional callbacks at the three
    granularities a run exposes — DFS epochs, thermal steps, and run
    completion — and [Engine.run] composes any subset.  The step view
    is a single mutable record the engine refills in place, so an
    attached probe costs a few callback invocations per step and an
    unprobed run costs nothing at all. *)

open Linalg

type sample = { at : float; core_temperatures : Vec.t }
(** One per-epoch temperature snapshot (what the engine's old
    [series] recorded). *)

type epoch_view = {
  time : float;
  observation : Policy.observation;
      (** Exactly what the controller saw this epoch; safe to
          retain. *)
  frequencies : Vec.t;
      (** The granted (clamped) frequencies.  This is the engine's
          live buffer: copy it if you keep it. *)
}

type step_view = {
  mutable at : float;  (** Simulated time of this step, seconds. *)
  dt : float;
  mutable temperatures : Vec.t;
      (** Full node temperature vector after the step.  A ping-pong
          buffer the engine reuses: read, never retain or mutate. *)
  core_nodes : int array;  (** Node index of each core. *)
  mutable chip_power : float;  (** Total chip power this step, W. *)
}

type t = {
  name : string;
  on_epoch : (epoch_view -> unit) option;
  on_step : (step_view -> unit) option;
  on_finish : (unit -> unit) option;
}

val make :
  ?on_epoch:(epoch_view -> unit) ->
  ?on_step:(step_view -> unit) ->
  ?on_finish:(unit -> unit) ->
  string ->
  t
(** A probe with the given callbacks; omitted hooks cost nothing. *)

(** {1 Stock probes}

    Constructors return the probe together with an accessor for what
    it gathered; read the accessor after the run. *)

val recorder : unit -> t * (unit -> sample array)
(** Per-epoch core-temperature snapshots, in time order — the old
    [result.series]. *)

val frequency_log : unit -> t * (unit -> (float * Vec.t) array)
(** Per-epoch controller decisions (copied), in time order — the old
    [result.frequency_log]. *)

val stats : n_cores:int -> tmax:float -> unit -> t * Stats.t
(** An independent {!Stats.t} fed from the step stream — e.g. to
    score a run against a second threshold.  Thermal and
    energy figures match the engine's own statistics bit-for-bit;
    scheduling figures (waiting, dispatch counts) stay zero because
    probes only see the thermal stream. *)

type audit = {
  audited_steps : int;
  violating_steps : int;  (** Steps with some core above [tmax]. *)
  worst_excess : float;  (** Peak [hottest - tmax], 0 if never above. *)
  first_violation : float option;  (** Time of the first violation. *)
}

val thermal_audit : tmax:float -> unit -> t * (unit -> audit)
(** Watches every step for cores above [tmax] — the run-time
    counterpart of the offline {!Protemp.Guarantee} audit.  Raises
    [Invalid_argument] on a non-finite [tmax]. *)

val jsonl : ?every:int -> out_channel -> t
(** Streams one JSON object per sampled step
    ([{"t":..,"hottest":..,"power":..}]) to the channel; [every]
    (default 1) subsamples.  Flushes on finish; the caller owns the
    channel. *)
