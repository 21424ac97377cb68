(* The grid a table is built over: immutable, so the row function can
   take it to every domain of a fill. *)
type grid = {
  machine : Sim.Machine.t;
  spec : Spec.t;  (* tmax already tightened by the construction margin *)
  tstarts : float array;
  ftargets : float array;
}

type filled = {
  table : Table.t;
  closed_form : int;
  active_set : int;
  frontier_verdicts : int;
  conic : Convex.Conic.stats;
}

(* The one mutable field is written once, by the first [fill], on the
   calling domain. *)
type t = { grid : grid; mutable filled : filled option }

(* Finite and strictly increasing; written so that a NaN fails. *)
let finite_increasing (a : float array) =
  let ok = ref (Array.for_all Float.is_finite a) in
  for i = 1 to Array.length a - 1 do
    if not (a.(i) > a.(i - 1)) then ok := false
  done;
  !ok

let create ?(margin = 0.0) ~machine ~spec ~tstarts ~ftargets () =
  let spec = Spec.guard_band ~margin spec in
  if Array.length tstarts = 0 || Array.length ftargets = 0 then
    invalid_arg "Dense_table.create: empty axis";
  if not (finite_increasing tstarts) then
    invalid_arg "Dense_table.create: tstarts not finite and strictly increasing";
  if not (finite_increasing ftargets) then
    invalid_arg
      "Dense_table.create: ftargets not finite and strictly increasing";
  (* Written so that a NaN target fails too. *)
  let fmax = machine.Sim.Machine.fmax in
  if not (Array.for_all (fun f -> f >= 0.0 && f <= fmax) ftargets) then
    invalid_arg "Dense_table.create: ftarget outside [0, fmax]";
  Spec.validate spec;
  let tstarts = Array.copy tstarts and ftargets = Array.copy ftargets in
  { grid = { machine; spec; tstarts; ftargets }; filled = None }

type fill_stats = {
  cells : int;
  solves : int;
  warm_hits : int;
  pruned : int;
  feasible : int;
}

type row = {
  cells : Table.cell array;
  feasible : int;  (* the row's first infeasible column, or its width *)
  closed_form : int;
  active_set : int;
  frontier_verdict : bool;  (* a ladder tangent refuted that column *)
  conic : Convex.Conic.stats;
}

(* One row of the table, its columns left to right up to the first
   infeasible one (infeasibility is monotone in [ftarget]).  A row
   below [closed_rows] ({!Model.closed_rows}: every column holds
   there) is served a fresh copy of each column's frequencies, with no
   start, check, instance, dual or solution record, and counted as
   {!Model.solve} counts a closed-form cell: one optimal outcome with
   no iteration.  Any other row is prepared once (the first of them
   takes the start [first_open] the search made for it), its leading
   columns that hold are found on that start and served the same way
   ({!Model.closed_prefix}), and every later cell is instantiated and
   solved in the row's one conic workspace, made when the first such
   cell comes; most first infeasible columns cost one evaluation of a
   frontier tangent, the one outcome counted primal-infeasible with no
   iteration.  Each cell is seeded with the previous feasible column's
   optimum (a column's point when it settled that cell).  A pure
   function of the grid, its columns, the closed rows and [i]: a fill
   is bit-identical at any domain count. *)
let run_row g columns (closed_rows, first_open) i =
  let cols = Array.length g.ftargets in
  let closed, prepared =
    if i < closed_rows then (cols, None)
    else
      let p =
        match first_open with
        | Some p when i = closed_rows -> p
        | Some _ | None ->
            Model.prepare ~machine:g.machine ~spec:g.spec ~tstart:g.tstarts.(i)
      in
      (Model.closed_prefix columns p, Some p)
  in
  let cells = Array.make cols Table.Infeasible in
  let start = ref None in
  for j = 0 to closed - 1 do
    let col = Option.get (Model.column_at columns j) in
    cells.(j) <- Table.Frequencies (Model.column_frequencies col);
    start := Some (Model.column_x col)
  done;
  let conic = ref Convex.Conic.stats_zero and closed_form = ref closed in
  let active_set = ref 0 in
  let feasible, frontier_verdict =
    match prepared with
    | None -> (cols, false)
    | Some prepared ->
        let conic_ws = lazy (Model.workspace prepared) in
        let rec solve_from j start =
          if j = cols then (j, false)
          else
            let built = Model.instantiate prepared ~ftarget:g.ftargets.(j) in
            let before = !conic in
            match
              Model.solve ~conic_stats_into:conic
                ~conic_ws:(Lazy.force conic_ws) ?start built
            with
            | Model.Infeasible ->
                let after = !conic in
                ( j,
                  after.primal_infeasible > before.primal_infeasible
                  && after.iterations = before.iterations )
            | Model.Feasible s ->
                (* An active-set or interior-point optimum, or, where
                   the columns are not searchable, a closed form
                   {!Model.solve} finds itself. *)
                (match s.Model.settled_by with
                | `Closed_form -> incr closed_form
                | `Active_set -> incr active_set
                | `Interior_point -> ());
                cells.(j) <- Table.Frequencies s.Model.frequencies;
                solve_from (j + 1) (Some s.Model.raw.Convex.Solve.x)
        in
        solve_from closed !start
  in
  {
    cells;
    feasible;
    closed_form = !closed_form;
    active_set = !active_set;
    frontier_verdict;
    conic = { !conic with optimal = !conic.optimal + closed };
  }

let no_cells =
  { cells = 0; solves = 0; warm_hits = 0; pruned = 0; feasible = 0 }

let fill ?domains t =
  match t.filled with
  | Some _ -> no_cells
  | None ->
      let g = t.grid in
      let cols = Array.length g.ftargets in
      (* The columns and the closed rows are found here, on the
         calling domain, so a grid the model refuses (its spec on this
         machine) fails before any row is solved; they are dropped
         with the fill. *)
      let columns = Model.columns ~machine:g.machine ~spec:g.spec g.ftargets in
      let closed_rows = Model.closed_rows columns g.tstarts in
      let rows =
        Parallel.Pool.map ?domains
          (run_row g columns closed_rows)
          (Array.length g.tstarts)
      in
      (* Merged in row order, so the counters do not depend on the
         domain count either.  Every row solves its columns up to and
         including the first infeasible one, and each solve after the
         first is seeded. *)
      let stats, (closed_form, active_set), frontier_verdicts, conic =
        Array.fold_left
          (fun ((s : fill_stats), (closed_form, active_set), verdicts, conic)
               (r : row) ->
            let solves = Stdlib.min cols (r.feasible + 1) in
            ( {
                cells = s.cells + cols;
                solves = s.solves + solves;
                warm_hits = s.warm_hits + solves - 1;
                pruned = s.pruned + cols - solves;
                feasible = s.feasible + r.feasible;
              },
              (closed_form + r.closed_form, active_set + r.active_set),
              (if r.frontier_verdict then verdicts + 1 else verdicts),
              Convex.Conic.stats_add conic r.conic ))
          (no_cells, (0, 0), 0, Convex.Conic.stats_zero)
          rows
      in
      let table =
        Table.make ~tstarts:g.tstarts ~ftargets:g.ftargets
          (Array.map (fun (r : row) -> r.cells) rows)
      in
      t.filled <-
        Some { table; closed_form; active_set; frontier_verdicts; conic };
      stats

let solver_stats t =
  match t.filled with Some f -> f.conic | None -> Convex.Conic.stats_zero

let closed_form_cells t =
  match t.filled with Some f -> f.closed_form | None -> 0

let active_set_cells t =
  match t.filled with Some f -> f.active_set | None -> 0

let frontier_verdicts t =
  match t.filled with Some f -> f.frontier_verdicts | None -> 0

let rec to_table ?domains t =
  match t.filled with
  | Some f -> f.table
  | None ->
      ignore (fill ?domains t);
      to_table t
