type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz *)
  values : float array; (* length nnz *)
}

type triplet = { row : int; col : int; value : float }

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.values

let of_triplets ~rows ~cols triplets =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_triplets: negative dims";
  List.iter
    (fun { row; col; _ } ->
      if row < 0 || row >= rows || col < 0 || col >= cols then
        invalid_arg "Sparse.of_triplets: entry out of bounds")
    triplets;
  (* Sum duplicates via a per-row association into a sorted row
     representation. *)
  let tbl = Hashtbl.create (List.length triplets) in
  List.iter
    (fun { row; col; value } ->
      let key = (row, col) in
      let prev = try Hashtbl.find tbl key with Not_found -> 0.0 in
      Hashtbl.replace tbl key (prev +. value))
    triplets;
  let entries =
    Hashtbl.fold
      (* Bit-exact: only true zeros may be dropped from the pattern. *)
      (fun (r, c) v acc -> if Float.equal v 0.0 then acc else (r, c, v) :: acc)
      tbl []
  in
  let entries =
    List.sort
      (fun (r1, c1, _) (r2, c2, _) ->
        match compare r1 r2 with 0 -> compare c1 c2 | c -> c)
      entries
  in
  let n = List.length entries in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_idx = Array.make n 0 in
  let values = Array.make n 0.0 in
  List.iteri
    (fun k (r, c, v) ->
      row_ptr.(r + 1) <- row_ptr.(r + 1) + 1;
      col_idx.(k) <- c;
      values.(k) <- v)
    entries;
  for r = 0 to rows - 1 do
    row_ptr.(r + 1) <- row_ptr.(r + 1) + row_ptr.(r)
  done;
  { rows; cols; row_ptr; col_idx; values }

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Sparse.get: out of bounds";
  let result = ref 0.0 in
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    if m.col_idx.(k) = j then result := m.values.(k)
  done;
  !result

let mul_vec m x =
  if Vec.dim x <> m.cols then invalid_arg "Sparse.mul_vec: dimension mismatch";
  Vec.init m.rows (fun i ->
      let acc = ref 0.0 in
      for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
        acc := !acc +. (m.values.(k) *. x.(m.col_idx.(k)))
      done;
      !acc)

let to_dense m =
  let d = Mat.zeros m.rows m.cols in
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Mat.set d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

let iter_entries m f =
  for i = 0 to m.rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      f i m.col_idx.(k) m.values.(k)
    done
  done

let transpose m =
  let trips = ref [] in
  iter_entries m (fun i j v -> trips := { row = j; col = i; value = v } :: !trips);
  of_triplets ~rows:m.cols ~cols:m.rows !trips

type cg_result = {
  solution : Vec.t;
  iterations : int;
  residual : float;
  converged : bool;
}

let cg ?(tol = 1e-10) ?max_iter ?x0 m b =
  if m.rows <> m.cols then invalid_arg "Sparse.cg: not square";
  if Vec.dim b <> m.rows then invalid_arg "Sparse.cg: bad rhs";
  let n = m.rows in
  let max_iter = match max_iter with Some k -> k | None -> 10 * n in
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  let r = Vec.sub b (mul_vec m x) in
  let p = Vec.copy r in
  let b_norm = Float.max (Vec.norm2 b) 1e-300 in
  let rs_old = ref (Vec.dot r r) in
  let iter = ref 0 in
  let stop = ref (sqrt !rs_old /. b_norm <= tol) in
  while (not !stop) && !iter < max_iter do
    incr iter;
    let ap = mul_vec m p in
    let denom = Vec.dot p ap in
    if denom <= 0.0 then stop := true (* not SPD or converged to rounding *)
    else begin
      let alpha = !rs_old /. denom in
      Vec.axpy_into ~dst:x alpha p;
      Vec.axpy_into ~dst:r (-.alpha) ap;
      let rs_new = Vec.dot r r in
      if sqrt rs_new /. b_norm <= tol then stop := true
      else begin
        let beta = rs_new /. !rs_old in
        for i = 0 to n - 1 do
          p.(i) <- r.(i) +. (beta *. p.(i))
        done
      end;
      rs_old := rs_new
    end
  done;
  let final_res = Vec.norm2 (Vec.sub b (mul_vec m x)) in
  {
    solution = x;
    iterations = !iter;
    residual = final_res;
    converged = final_res /. b_norm <= tol *. 10.0;
  }
