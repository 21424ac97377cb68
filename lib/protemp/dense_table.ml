type filled = {
  table : Table.t;
  closed_form : int;
  active_set : int;
  frontier_verdicts : int;
  conic : Convex.Conic.stats;
}

(* The grid a table is built over.  The one mutable field is written
   once, by the first [fill], on the calling domain. *)
type t = {
  machine : Sim.Machine.t;
  spec : Spec.t;  (* tmax already tightened by the construction margin *)
  tstarts : float array;
  ftargets : float array;
  mutable filled : filled option;
}

let create ?(margin = 0.0) ~machine ~spec ~tstarts ~ftargets () =
  let spec = Spec.guard_band ~margin spec in
  if Array.length tstarts = 0 || Array.length ftargets = 0 then
    invalid_arg "Dense_table.create: empty axis";
  if not (Table.finite_increasing tstarts) then
    invalid_arg "Dense_table.create: tstarts not finite and strictly increasing";
  if not (Table.finite_increasing ftargets) then
    invalid_arg
      "Dense_table.create: ftargets not finite and strictly increasing";
  (* Written so that a NaN target fails too. *)
  let fmax = machine.Sim.Machine.fmax in
  if not (Array.for_all (fun f -> f >= 0.0 && f <= fmax) ftargets) then
    invalid_arg "Dense_table.create: ftarget outside [0, fmax]";
  Spec.validate spec;
  let tstarts = Array.copy tstarts and ftargets = Array.copy ftargets in
  { machine; spec; tstarts; ftargets; filled = None }

type fill_stats = {
  cells : int;
  solves : int;
  warm_hits : int;
  pruned : int;
  feasible : int;
}

let no_cells =
  { cells = 0; solves = 0; warm_hits = 0; pruned = 0; feasible = 0 }

let fill ?domains t =
  match t.filled with
  | Some _ -> no_cells
  | None ->
      let { machine; spec; tstarts; ftargets; _ } = t in
      let cols = Array.length ftargets in
      (* The columns and the closed rows are found here, on the
         calling domain, so a grid the model refuses (its spec on this
         machine) fails before any row is solved; they are dropped
         with the fill. *)
      let row = Model.rows (Model.columns ~machine ~spec ftargets) tstarts in
      let rows = Parallel.Pool.map ?domains row (Array.length tstarts) in
      (* Merged in row order, so the counters do not depend on the
         domain count either.  Every row solves its columns up to and
         including the first infeasible one, and each solve after the
         first is seeded. *)
      let stats, (closed_form, active_set), frontier_verdicts, conic =
        Array.fold_left
          (fun ((s : fill_stats), (closed_form, active_set), verdicts, conic)
               (r : Model.row) ->
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
        Table.make ~tstarts ~ftargets
          (Array.map (fun (r : Model.row) -> r.cells) rows)
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
