(* A dense primal simplex solver for linear programs: the LP oracle
   for the conic solver.

   [minimize c'x subject to A x <= b, x >= 0], solved with the
   standard tableau method and Bland's anti-cycling rule, with a
   two-phase (auxiliary LP) start when [b] has negative entries.  It
   shares no code or method with [Convex.Conic], so test_convex checks
   the two against each other on random LPs.  Raises
   [Invalid_argument] on shape mismatches. *)

open Linalg

type status =
  | Optimal of { x : Vec.t; objective_value : float }
  | Unbounded
  | Infeasible

let eps = 1e-9

(* Tableau layout: [rows] constraint rows, one objective row kept
   separately; column [ncols] is the right-hand side.  [basis.(r)] is
   the variable basic in row [r]. *)
type tableau = {
  rows : float array array;
  basis : int array;
  obj : float array;  (* length ncols + 1; last entry = -objective *)
  ncols : int;
}

let pivot t r c =
  let piv = t.rows.(r).(c) in
  let row = t.rows.(r) in
  for j = 0 to t.ncols do
    row.(j) <- row.(j) /. piv
  done;
  let eliminate target =
    let factor = target.(c) in
    if Float.abs factor > 0.0 then
      for j = 0 to t.ncols do
        target.(j) <- target.(j) -. (factor *. row.(j))
      done
  in
  Array.iteri (fun i target -> if i <> r then eliminate target) t.rows;
  eliminate t.obj;
  t.basis.(r) <- c

(* Bland's rule keeps the method finite on degenerate problems. *)
let entering t ~allowed =
  let best = ref None in
  for c = allowed - 1 downto 0 do
    if t.obj.(c) < -.eps then best := Some c
  done;
  !best

let leaving t c =
  let best = ref None in
  Array.iteri
    (fun r row ->
      if row.(c) > eps then begin
        let ratio = row.(t.ncols) /. row.(c) in
        match !best with
        | None -> best := Some (r, ratio)
        | Some (r', ratio') ->
            if
              ratio < ratio' -. eps
              || (Float.abs (ratio -. ratio') <= eps
                 && t.basis.(r) < t.basis.(r'))
            then best := Some (r, ratio)
    end)
    t.rows;
  Option.map fst !best

let rec iterate t ~allowed =
  match entering t ~allowed with
  | None -> `Optimal
  | Some c -> (
      match leaving t c with
      | None -> `Unbounded
      | Some r ->
          pivot t r c;
          iterate t ~allowed)

let solve ~c ~a ~b =
  let n = Vec.dim c in
  let m = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Simplex.solve: A/c mismatch";
  if Vec.dim b <> m then invalid_arg "Simplex.solve: A/b mismatch";
  (* Normalize rows to nonnegative rhs; flipped rows need an
     artificial variable (their slack enters with coefficient -1). *)
  let flipped = Array.init m (fun i -> b.(i) < 0.0) in
  let artificial_rows =
    Array.to_list (Array.of_seq (Seq.filter (fun i -> flipped.(i))
                                   (Seq.init m (fun i -> i))))
  in
  let k = List.length artificial_rows in
  let ncols = n + m + k in
  let art_col =
    let tbl = Hashtbl.create k in
    List.iteri (fun j r -> Hashtbl.add tbl r (n + m + j)) artificial_rows;
    tbl
  in
  let rows =
    Array.init m (fun i ->
        let sign = if flipped.(i) then -1.0 else 1.0 in
        let row = Array.make (ncols + 1) 0.0 in
        for j = 0 to n - 1 do
          row.(j) <- sign *. Mat.get a i j
        done;
        row.(n + i) <- sign (* slack *);
        (match Hashtbl.find_opt art_col i with
        | Some col -> row.(col) <- 1.0
        | None -> ());
        row.(ncols) <- sign *. b.(i);
        row)
  in
  let basis =
    Array.init m (fun i ->
        match Hashtbl.find_opt art_col i with
        | Some col -> col
        | None -> n + i)
  in
  (* Phase 1: minimize the sum of artificials.  The objective row is
     the cost row minus the rows of the basic artificials. *)
  if k > 0 then begin
    let obj = Array.make (ncols + 1) 0.0 in
    Hashtbl.iter (fun _ col -> obj.(col) <- 1.0) art_col;
    Array.iteri
      (fun r bvar ->
        if bvar >= n + m then
          for j = 0 to ncols do
            obj.(j) <- obj.(j) -. rows.(r).(j)
          done)
      basis;
    let t = { rows; basis; obj; ncols } in
    (match iterate t ~allowed:ncols with
    | `Unbounded -> assert false (* phase 1 is bounded below by 0 *)
    | `Optimal -> ());
    if -.t.obj.(ncols) > 1e-7 then raise Exit
  end;
  (* Drive any remaining zero-level artificials out of the basis, or
     drop their (redundant) rows. *)
  let keep = ref [] in
  Array.iteri
    (fun r bvar ->
      if bvar >= n + m then begin
        let t = { rows; basis; obj = Array.make (ncols + 1) 0.0; ncols } in
        let col = ref None in
        for j = n + m - 1 downto 0 do
          if Float.abs rows.(r).(j) > eps then col := Some j
        done;
        match !col with
        | Some j -> pivot t r j
        | None -> () (* redundant row; dropped below *)
      end)
    basis;
  Array.iteri
    (fun r bvar -> if bvar < n + m then keep := r :: !keep)
    basis;
  let keep = List.rev !keep in
  let rows = Array.of_list (List.map (fun r -> rows.(r)) keep) in
  let basis = Array.of_list (List.map (fun r -> basis.(r)) keep) in
  (* Phase 2: the real objective, expressed in the current basis. *)
  let obj = Array.make (ncols + 1) 0.0 in
  for j = 0 to n - 1 do
    obj.(j) <- c.(j)
  done;
  Array.iteri
    (fun r bvar ->
      let cost = if bvar < n then c.(bvar) else 0.0 in
      if Float.abs cost > 0.0 then
        for j = 0 to ncols do
          obj.(j) <- obj.(j) -. (cost *. rows.(r).(j))
        done)
    basis;
  let t = { rows; basis; obj; ncols } in
  match iterate t ~allowed:(n + m) with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let x = Vec.zeros n in
      Array.iteri
        (fun r bvar -> if bvar < n then x.(bvar) <- t.rows.(r).(t.ncols))
        t.basis;
      Optimal { x; objective_value = Vec.dot c x }

let solve ~c ~a ~b = try solve ~c ~a ~b with Exit -> Infeasible
