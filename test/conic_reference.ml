(* A convex program in [Quad] form, packed into the rows of
   [Convex.Conic.make]: the general packer the library used before
   [Protemp.Model] wrote Eq. 3's rows itself, kept as the oracle those
   rows are checked against (test_protemp's bit-identity property) and
   as the way the conic tests state small problems.  [make] takes the
   rows as an array of stripes and packs them into the contiguous
   buffer [Convex.Conic.make] reads.

   Affine constraints [q'x + r <= 0] become orthant rows, in
   constraint order: [h = -r], [G] row [q].  Each rank-one quadratic
   [(a'x)^2 + q'x + r <= 0] becomes one rotated-quadratic block
   [(u, v, w) = (-q'x - r, 1/2, a'x)] after the orthant rows, written
   rotated by T onto the standard cone, under which the u and v rows
   both become q/sqrt 2.  Every dense row is cut to the stripe between
   its first and last nonzero entries. *)

open Linalg
open Convex

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* Truncate a dense row to its nonzero stripe. *)
let truncate_row full =
  let n = Array.length full in
  let lo = ref 0 in
  while !lo < n && full.(!lo) = 0.0 do
    incr lo
  done;
  if !lo = n then (0, [||])
  else begin
    let hi = ref (n - 1) in
    while full.(!hi) = 0.0 do
      decr hi
    done;
    (!lo, Array.sub full !lo (!hi - !lo + 1))
  end

(* Pack an array of truncated rows [(lo, coeffs)] into one contiguous
   buffer with [q + 1] row offsets. *)
let pack_rows rows =
  let q = Array.length rows in
  let goff = Array.make (q + 1) 0 in
  for i = 0 to q - 1 do
    goff.(i + 1) <- goff.(i) + Array.length (snd rows.(i))
  done;
  let gdata = Array.make (max 1 goff.(q)) 0.0 in
  for i = 0 to q - 1 do
    let row = snd rows.(i) in
    Array.blit row 0 gdata goff.(i) (Array.length row)
  done;
  (gdata, goff)

(* [Convex.Conic.make] from stripes: row [i] is [g.(i) = (lo, coeffs)],
   [G_(i, lo + k) = coeffs.(k)]. *)
let make ~c ~n_orthant ~g ~h =
  let gdata, goff = pack_rows g in
  Conic.make ~c ~n_orthant ~glo:(Array.map fst g) ~goff ~gdata ~h

(* Recover a from P = 2 a a^T (the Hessian of a rank-one quadratic
   constraint); [Invalid_argument] when P is not of that form. *)
let rank_one_factor pmat =
  let n = Mat.rows pmat in
  let imax = ref 0 in
  for i = 1 to n - 1 do
    if Mat.get pmat i i > Mat.get pmat !imax !imax then imax := i
  done;
  let dmax = Mat.get pmat !imax !imax in
  if dmax <= 0.0 then
    invalid_arg "of_problem: quadratic constraint with no curvature";
  let av = Vec.zeros n in
  let ai = sqrt (dmax /. 2.0) in
  av.(!imax) <- ai;
  for j = 0 to n - 1 do
    if j <> !imax then av.(j) <- Mat.get pmat !imax j /. (2.0 *. ai)
  done;
  let tol = 1e-7 *. (1.0 +. dmax) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if abs_float (Mat.get pmat i j -. (2.0 *. av.(i) *. av.(j))) > tol
      then invalid_arg "of_problem: quadratic constraint is not rank-one"
    done
  done;
  av

(* The orthant row of affine constraint [j], or [None] for a
   quadratic one. *)
let orthant_row (p : Quad.problem) j =
  if not (Quad.is_affine p.Quad.constraints.(j)) then None
  else begin
    let i = ref 0 in
    for k = 0 to j - 1 do
      if Quad.is_affine p.Quad.constraints.(k) then incr i
    done;
    Some !i
  end

(* The instance of [p] and its constants. *)
let packed (p : Quad.problem) =
  if not (Quad.is_affine p.Quad.objective) then
    invalid_arg "of_problem: objective is not affine";
  if Quad.constant_part p.Quad.objective <> 0.0 then
    invalid_arg "of_problem: objective has a constant term";
  let affine, quadratic =
    List.partition Quad.is_affine (Array.to_list p.Quad.constraints)
  in
  let orthant =
    List.map
      (fun cj ->
        (* q'x + r <= 0  <=>  (-r) - q'x >= 0 *)
        (truncate_row (Quad.linear_part cj), -.Quad.constant_part cj))
      affine
  in
  let blocks =
    List.concat_map
      (fun cj ->
        let qv = Quad.linear_part cj and r = Quad.constant_part cj in
        let av = rank_one_factor (Quad.hess cj) in
        let uv = truncate_row (Array.map (fun q -> inv_sqrt2 *. q) qv) in
        [
          (uv, inv_sqrt2 *. (-.r +. 0.5));
          (uv, inv_sqrt2 *. (-.r -. 0.5));
          (truncate_row (Array.map Float.neg av), 0.0);
        ])
      quadratic
  in
  let rows = Array.of_list (orthant @ blocks) in
  let h = Array.map snd rows in
  ( make
      ~c:(Quad.linear_part p.Quad.objective)
      ~n_orthant:(List.length affine) ~g:(Array.map fst rows) ~h,
    h )

let of_problem p = fst (packed p)

(* [of_problem p] in which the orthant rows [rows.(0 .. n - 1)] take
   part, with the candidates [rows.(first .. last - 1)]. *)
let with_rows p ~rows ~n ~first ~last =
  let t, h = packed p in
  Conic.with_rows t h ~rows ~n ~first ~last

(* Multipliers of the constraints of [p] from a solution of its
   packed instance: the orthant dual of an affine row, the epigraph
   block's [u] dual of a quadratic one. *)
let constraint_duals (p : Quad.problem) (sol : Conic.solution) =
  let mo =
    Array.fold_left
      (fun k c -> if Quad.is_affine c then k + 1 else k)
      0 p.Quad.constraints
  in
  let io = ref 0 and is = ref 0 in
  Array.map
    (fun c ->
      if Quad.is_affine c then begin
        incr io;
        sol.Conic.z.(!io - 1)
      end
      else begin
        incr is;
        sol.Conic.z.(mo + (3 * (!is - 1)))
      end)
    p.Quad.constraints
