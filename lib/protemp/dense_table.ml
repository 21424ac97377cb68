open Linalg

(* A memoized dense grid.  All mutable state lives inside the value
   (never at toplevel): [cells]/[seeds] memoize per cell, [prepared]
   and [conic_ws] cache the per-row solver contexts of the rows that
   still have a cell to solve (a complete row drops them),
   [frontier.(i)] is the smallest column index known infeasible for
   row [i] ([n_cols] when none) — the data behind the monotone pruning
   rule.  Counters and solver stats are mutated on the owning domain
   only; [fill] workers return their counts and the merge happens on
   the caller, in row order. *)
type t = {
  machine : Sim.Machine.t;
  spec : Spec.t;  (* tmax already tightened by the construction margin *)
  tstarts : float array;
  ftargets : float array;
  cells : Table.cell option array array;
  seeds : Vec.t option array array;
      (* raw primal optimum of each solved feasible cell, the warm seed *)
  prepared : Model.prepared option array;
  conic_ws : Convex.Conic.workspace option array;
  frontier : int array;
  mutable n_solves : int;
  mutable n_warm_hits : int;
  mutable n_pruned : int;
  mutable n_closed_form : int;
  mutable conic_work : Convex.Conic.stats;
}

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
  Spec.validate spec;
  let rows = Array.length tstarts and cols = Array.length ftargets in
  {
    machine;
    spec;
    tstarts = Array.copy tstarts;
    ftargets = Array.copy ftargets;
    cells = Array.make_matrix rows cols None;
    seeds = Array.make_matrix rows cols None;
    prepared = Array.make rows None;
    conic_ws = Array.make rows None;
    frontier = Array.make rows cols;
    n_solves = 0;
    n_warm_hits = 0;
    n_pruned = 0;
    n_closed_form = 0;
    conic_work = Convex.Conic.stats_zero;
  }

let tstarts t = Array.copy t.tstarts
let ftargets t = Array.copy t.ftargets

let n_rows t = Array.length t.tstarts
let n_cols t = Array.length t.ftargets

let computed t =
  let n = ref 0 in
  Array.iter
    (Array.iter (function Some _ -> incr n | None -> ()))
    t.cells;
  !n

(* Infeasibility is monotone in both axes (hotter starts and higher
   targets are both harder), so the tightest prune bound for row [i]
   is the smallest column any row at or below [i] (cooler or equal
   [tstart]) has certified infeasible: those certificates carry up to
   every hotter row and out to every faster column. *)
let prune_bound t i =
  let b = ref (n_cols t) in
  for i' = 0 to i do
    if t.frontier.(i') < !b then b := t.frontier.(i')
  done;
  !b

(* A row's solver state, created on first use: its prepared context
   and one conic workspace for the whole row.  The per-column
   instances share their structure (only the throughput-floor constant
   moves), and the prepared context carries the floor-only closed
   form's per-row data, so most cells cost one pass over the thermal
   rows and no interior-point iteration.  Model.solve keeps each
   cell's working set of thermal rows in the workspace (the closed
   form's check writes it too), which grows only to the largest
   working set the row solves.  [cell] keeps the state in [t]; a
   [fill] worker keeps it local to its row.  The refs are written only
   when the state is created, so a row's solves leave no long-lived
   garbage behind. *)
let row_state t i prepared ws =
  let p =
    match !prepared with
    | Some p -> p
    | None ->
        let p =
          Model.prepare ~machine:t.machine ~spec:t.spec ~tstart:t.tstarts.(i)
        in
        prepared := Some p;
        p
  in
  let w =
    match !ws with
    | Some w -> w
    | None ->
        let w = Model.workspace p in
        ws := Some w;
        w
  in
  (p, w)

(* The already-solved adjacent cell with the closest [ftarget] —
   vertical neighbours share the column's ftarget exactly, so they
   beat horizontal ones; ties resolve to the cooler row then the
   slower column, keeping the choice deterministic for a given memo
   state. *)
let neighbour_seed t i j =
  let best = ref None and best_d = ref infinity in
  let consider i' j' =
    if i' >= 0 && i' < n_rows t && j' >= 0 && j' < n_cols t then
      match t.seeds.(i').(j') with
      | Some _ as s ->
          let d = abs_float (t.ftargets.(j') -. t.ftargets.(j)) in
          if d < !best_d then begin
            best := s;
            best_d := d
          end
      | None -> ()
  in
  consider (i - 1) j;
  consider (i + 1) j;
  consider i (j - 1);
  consider i (j + 1);
  !best

(* [conic] accumulates the solve's work counters; the flag is whether
   the floor-only closed form settled the cell. *)
let solve_cell t ~prepared ~ws ~seed ~conic j =
  let built = Model.instantiate prepared ~ftarget:t.ftargets.(j) in
  match
    Model.solve ~conic_stats_into:conic ~conic_ws:ws ?start:seed built
  with
  | Model.Feasible s ->
      ( Table.Frequencies s.Model.frequencies,
        Some s.Model.raw.Convex.Solve.x,
        s.Model.settled_by = `Closed_form )
  | Model.Infeasible -> (Table.Infeasible, None, false)

(* A row with every cell memoized never solves again: drop its solver
   contexts, which dominate a filled grid's live memory (DESIGN.md
   6p).  Its seeds stay, for on-demand neighbours in other rows. *)
let release_if_complete t i =
  if Array.for_all Option.is_some t.cells.(i) then begin
    t.prepared.(i) <- None;
    t.conic_ws.(i) <- None
  end

let cell t i j =
  if i < 0 || i >= n_rows t then invalid_arg "Dense_table.cell: row out of range";
  if j < 0 || j >= n_cols t then
    invalid_arg "Dense_table.cell: column out of range";
  match t.cells.(i).(j) with
  | Some c -> c
  | None ->
      if j >= prune_bound t i then begin
        (* Certified transitively: some cooler row is infeasible at a
           column <= j, and infeasibility is monotone. *)
        t.cells.(i).(j) <- Some Table.Infeasible;
        t.n_pruned <- t.n_pruned + 1;
        release_if_complete t i;
        Table.Infeasible
      end
      else begin
        let p = ref t.prepared.(i) and w = ref t.conic_ws.(i) in
        let prepared, ws = row_state t i p w in
        t.prepared.(i) <- !p;
        t.conic_ws.(i) <- !w;
        let seed = neighbour_seed t i j in
        t.n_solves <- t.n_solves + 1;
        (match seed with
        | Some _ -> t.n_warm_hits <- t.n_warm_hits + 1
        | None -> ());
        let conic = ref t.conic_work in
        let c, s, closed = solve_cell t ~prepared ~ws ~seed ~conic j in
        t.conic_work <- !conic;
        if closed then t.n_closed_form <- t.n_closed_form + 1;
        t.cells.(i).(j) <- Some c;
        t.seeds.(i).(j) <- s;
        (match c with
        | Table.Infeasible ->
            if j < t.frontier.(i) then t.frontier.(i) <- j
        | Table.Frequencies _ -> ());
        release_if_complete t i;
        c
      end

type fill_stats = {
  cells : int;
  solves : int;
  warm_hits : int;
  pruned : int;
  feasible : int;
}

(* One row of a fill: a pure function of the row's pre-fill memo state
   and the frontier snapshot, sequential over columns with the
   previous feasible column's optimum as the warm seed — so the grid a
   fill produces is bit-identical at any domain count.  The row comes
   back complete, so its solver contexts are not returned. *)
let run_row (t : t) ~bound0 i =
  let cols = n_cols t in
  let cells = Array.copy t.cells.(i) in
  let seeds = Array.copy t.seeds.(i) in
  let prepared = ref t.prepared.(i) in
  let ws = ref t.conic_ws.(i) in
  let conic = ref Convex.Conic.stats_zero in
  let frontier_i = ref t.frontier.(i) in
  let bound = ref (Stdlib.min bound0 !frontier_i) in
  let warm = ref None in
  let n_new = ref 0 and solves = ref 0 and warm_hits = ref 0 in
  let pruned = ref 0 and feasible = ref 0 and closed_form = ref 0 in
  for j = 0 to cols - 1 do
    match cells.(j) with
    | Some (Table.Frequencies _) -> warm := seeds.(j)
    | Some Table.Infeasible -> if j < !bound then bound := j
    | None ->
        incr n_new;
        if j >= !bound then begin
          cells.(j) <- Some Table.Infeasible;
          incr pruned;
          if j < !frontier_i then frontier_i := j
        end
        else begin
          let p, w = row_state t i prepared ws in
          incr solves;
          (match !warm with Some _ -> incr warm_hits | None -> ());
          let c, s, closed =
            solve_cell t ~prepared:p ~ws:w ~seed:!warm ~conic j
          in
          if closed then incr closed_form;
          cells.(j) <- Some c;
          seeds.(j) <- s;
          match c with
          | Table.Frequencies _ ->
              incr feasible;
              warm := s
          | Table.Infeasible ->
              if j < !bound then bound := j;
              if j < !frontier_i then frontier_i := j
        end
  done;
  ( cells, seeds, !frontier_i, !n_new, !solves, !warm_hits, !pruned,
    !feasible, !closed_form, !conic )

let fill ?domains (t : t) =
  let domains =
    match domains with Some d -> d | None -> Parallel.Pool.default_domains ()
  in
  let rows = n_rows t in
  (* Snapshot the cross-row frontier before the fan-out: every row
     prunes against the same deterministic bound, independent of which
     rows happen to finish first. *)
  let bounds = Array.init rows (fun i -> prune_bound t i) in
  let results =
    (* lint: capture rows share t read-only during the fan-out; each worker returns its row's state and only the submitting domain writes it back below *)
    Parallel.Pool.map ~domains (fun i -> run_row t ~bound0:bounds.(i) i) rows
  in
  let acc = ref { cells = 0; solves = 0; warm_hits = 0; pruned = 0; feasible = 0 } in
  Array.iteri
    (fun i (cells, seeds, frontier_i, n_new, solves, warm_hits, pruned,
            feasible, closed_form, conic) ->
      t.cells.(i) <- cells;
      t.seeds.(i) <- seeds;
      t.prepared.(i) <- None;
      t.conic_ws.(i) <- None;
      t.frontier.(i) <- frontier_i;
      t.conic_work <- Convex.Conic.stats_add t.conic_work conic;
      t.n_closed_form <- t.n_closed_form + closed_form;
      acc :=
        {
          cells = !acc.cells + n_new;
          solves = !acc.solves + solves;
          warm_hits = !acc.warm_hits + warm_hits;
          pruned = !acc.pruned + pruned;
          feasible = !acc.feasible + feasible;
        })
    results;
  t.n_solves <- t.n_solves + !acc.solves;
  t.n_warm_hits <- t.n_warm_hits + !acc.warm_hits;
  t.n_pruned <- t.n_pruned + !acc.pruned;
  !acc

let stats (t : t) =
  let feasible = ref 0 in
  Array.iter
    (Array.iter (function
      | Some (Table.Frequencies _) -> incr feasible
      | Some Table.Infeasible | None -> ()))
    t.cells;
  {
    cells = computed t;
    solves = t.n_solves;
    warm_hits = t.n_warm_hits;
    pruned = t.n_pruned;
    feasible = !feasible;
  }

let solver_stats t = t.conic_work
let closed_form_cells t = t.n_closed_form

(* ------------------------------------------------------------------ *)
(* Lookups *)

let discrete t ~temperature ~required =
  match Table.covering t.tstarts temperature with
  | -1 -> None
  | row ->
      let start = Table.round_up t.ftargets required in
      let rec down j =
        if j < 0 then None
        else
          match cell t row j with
          | Table.Frequencies f -> Some (Vec.copy f)
          | Table.Infeasible -> down (j - 1)
      in
      down start

let lookup t ~temperature ~required =
  let clamped () =
    match discrete t ~temperature ~required with
    | Some d -> `Clamped d
    | None -> `None
  in
  match Table.covering t.tstarts temperature with
  | -1 -> `None
  | i1 -> (
      match Table.covering t.ftargets required with
      | -1 ->
          (* Requirement beyond the grid: no upper corner to blend
             toward; the discrete rule's round-down applies. *)
          clamped ()
      | j1 -> (
          let i0 = if temperature <= t.tstarts.(0) then i1 else i1 - 1 in
          let j0 = if required <= t.ftargets.(0) then j1 else j1 - 1 in
          match (cell t i0 j0, cell t i0 j1, cell t i1 j0, cell t i1 j1) with
          | Table.Frequencies f00, Table.Frequencies f01,
            Table.Frequencies f10, Table.Frequencies f11 ->
              let wt =
                if i0 = i1 then 1.0
                else
                  (temperature -. t.tstarts.(i0))
                  /. (t.tstarts.(i1) -. t.tstarts.(i0))
              in
              let wf =
                if j0 = j1 then 1.0
                else
                  (required -. t.ftargets.(j0))
                  /. (t.ftargets.(j1) -. t.ftargets.(j0))
              in
              let v =
                Vec.init (Vec.dim f11) (fun c ->
                    ((1.0 -. wt) *. (((1.0 -. wf) *. f00.(c)) +. (wf *. f01.(c))))
                    +. (wt *. (((1.0 -. wf) *. f10.(c)) +. (wf *. f11.(c)))))
              in
              (* The repair pass: certify the blend from the
                 conservative covering row's start temperature — the
                 same simulate-and-check the Guarantee audits use.  A
                 blend that cannot be certified clamps down to the
                 discrete rule, so interpolation is never less safe
                 than the paper's lookup. *)
              let peak =
                Guarantee.window_peak ~machine:t.machine
                  ~dfs_period:t.spec.Spec.dfs_period ~tstart:t.tstarts.(i1)
                  ~frequencies:v
              in
              if peak <= t.spec.Spec.tmax then `Interpolated v else clamped ()
          | _ -> clamped ()))

(* ------------------------------------------------------------------ *)

let to_table ?domains (t : t) =
  if computed t < n_rows t * n_cols t then ignore (fill ?domains t);
  let cells =
    Array.map
      (Array.map (function
        | Some c -> c
        | None -> assert false (* fill memoized every cell *)))
      t.cells
  in
  Table.make ~tstarts:(Array.copy t.tstarts) ~ftargets:(Array.copy t.ftargets)
    cells

let audit t = Guarantee.audit_table ~machine:t.machine ~spec:t.spec (to_table t)
