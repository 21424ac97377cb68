type t = { rows : int; cols : int; data : float array }

let rows m = m.rows
let cols m = m.cols

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let of_rows arr =
  let rows = Array.length arr in
  let cols = if rows = 0 then 0 else Array.length arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows")
    arr;
  init rows cols (fun i j -> arr.(i).(j))

let of_diag v =
  let n = Vec.dim v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let copy m = { m with data = Array.copy m.data }

let check_bounds name m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: index (%d,%d) out of %dx%d" name i j m.rows
         m.cols)

let get m i j =
  check_bounds "get" m i j;
  m.data.((i * m.cols) + j)

let set m i j x =
  check_bounds "set" m i j;
  m.data.((i * m.cols) + j) <- x

let data m = m.data

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row: out of range";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: out of range";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let diag m = Array.init (Stdlib.min m.rows m.cols) (fun i -> m.data.((i * m.cols) + i))

let to_rows m = Array.init m.rows (fun i -> row m i)

let check_same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same_shape "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same_shape "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale c a = { a with data = Array.map (fun x -> c *. x) a.data }

let transpose a = init a.cols a.rows (fun i j -> a.data.((j * a.cols) + i))

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: inner dimension mismatch (%d vs %d)" a.cols
         b.rows);
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      (* lint: float-equality exact-zero skip, hot kernel *)
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * b.cols) + j) <-
            c.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let mul_vec_into a x ~dst =
  if a.cols <> Vec.dim x then
    invalid_arg "Mat.mul_vec_into: dimension mismatch";
  if a.rows <> Vec.dim dst then
    invalid_arg "Mat.mul_vec_into: bad destination";
  for i = 0 to a.rows - 1 do
    let acc = ref 0.0 in
    let base = i * a.cols in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (a.data.(base + j) *. x.(j))
    done;
    dst.(i) <- !acc
  done

let mul_vec a x =
  let dst = Vec.zeros a.rows in
  mul_vec_into a x ~dst;
  dst

let tmul_vec a x =
  if a.rows <> Vec.dim x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let dst = Vec.zeros a.cols in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then (* lint: float-equality exact-zero skip, hot kernel *)
      let base = i * a.cols in
      for j = 0 to a.cols - 1 do
        dst.(j) <- dst.(j) +. (a.data.(base + j) *. xi)
      done
  done;
  dst

let outer x y =
  init (Vec.dim x) (Vec.dim y) (fun i j -> x.(i) *. y.(j))

let add_into ~dst b =
  check_same_shape "add_into" dst b;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- dst.data.(k) +. b.data.(k)
  done

let is_square m = m.rows = m.cols

let pow a k =
  if not (is_square a) then invalid_arg "Mat.pow: not square";
  if k < 0 then invalid_arg "Mat.pow: negative power";
  let rec go acc base k =
    if k = 0 then acc
    else if k land 1 = 1 then go (matmul acc base) (matmul base base) (k lsr 1)
    else go acc (matmul base base) (k lsr 1)
  in
  go (identity a.rows) a k

let is_symmetric ?(tol = 1e-9) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. Float.abs m.data.((i * m.cols) + j)
    done;
    if !acc > !best then best := !acc
  done;
  !best

let norm_fro m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let trace m =
  if not (is_square m) then invalid_arg "Mat.trace: not square";
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    acc := !acc +. m.data.((i * m.cols) + i)
  done;
  !acc

let symmetrize m =
  if not (is_square m) then invalid_arg "Mat.symmetrize: not square";
  init m.rows m.cols (fun i j -> 0.5 *. (get m i j +. get m j i))

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to Array.length a.data - 1 do
    if Float.abs (a.data.(k) -. b.data.(k)) > tol then ok := false
  done;
  !ok
