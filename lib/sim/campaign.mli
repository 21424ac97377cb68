(** Parallel simulation campaigns.

    The paper's evaluation (Sec. 5) is a grid of full-trace
    simulations: every controller crossed with every assignment policy
    and every workload scenario.  Those cells are independent, so a
    campaign fans them across a {!Parallel.Pool} — the run-time
    counterpart of [Protemp.Dense_table.fill]'s design-time sweep.

    Determinism: each cell regenerates its trace from the scenario's
    own seed and builds a fresh controller (and fresh {!Fault} state)
    from its thunk, so a cell's {!Stats.t} depends only on its grid
    coordinates — never on domain count or execution order.  Results
    come back in index order, controller-major with the fault
    coordinate varying fastest: cell [(ci, ai, si, fi)] lands at
    [((((ci * n_assignments) + ai) * n_scenarios) + si) * n_faults
    + fi]. *)

type scenario = {
  scenario_name : string;
  seed : int64;
  n_tasks : int;
  mix : Workload.Mix.t;
}

val scenario :
  ?seed:int64 -> ?n_tasks:int -> name:string -> Workload.Mix.t -> scenario
(** [seed] defaults to [2008L] (the paper's year), [n_tasks] to
    [20_000]. *)

type spec = {
  controllers : (string * (unit -> Policy.controller)) list;
      (** Thunks, not values: controllers such as Basic-DFS carry
          mutable state, so every cell needs its own instance. *)
  assignments : Policy.assignment list;
  scenarios : scenario list;
  faults : (string * Fault.t list) list;
      (** Named fault scenarios; each cell's controller is wrapped
          with {!Fault.wrap} inside the cell.  [[]] means a single
          clean coordinate named ["none"] — cells are then
          bit-identical to a fault-free campaign. *)
  config : Engine.config;
}

val cells : spec -> int
(** Number of grid cells: controllers × assignments × scenarios ×
    fault scenarios (at least one). *)

type cell = {
  controller_name : string;
  assignment_name : string;
  scenario_name : string;
  fault_name : string;  (** ["none"] when the fault axis is empty. *)
  index : int;  (** Position in the result array. *)
  result : Engine.result;
}

val run :
  ?domains:int -> ?on_cell:(cell -> unit) -> machine:Machine.t -> spec -> cell array
(** Runs every cell of the grid on [domains] domains (default
    {!Parallel.Pool.default_domains}, i.e. [PROTEMP_DOMAINS] when
    set).  [on_cell] fires as cells complete — possibly out of grid
    order, but never concurrently with itself.  Raises
    [Invalid_argument] if any spec list is empty. *)

val pp_summary : Format.formatter -> cell array -> unit
(** One table row per cell: peak temperature, time above tmax, mean
    waiting, energy, unfinished tasks. *)
