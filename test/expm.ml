open Linalg

(* Scaling-and-squaring with a diagonal Padé approximant, following
   Moler & Van Loan's "nineteen dubious ways", method 3.  The [6/6]
   approximant with ||A/2^s|| <= 0.5 gives ~1e-14 relative accuracy,
   ample for thermal systems. *)

let pade_6 a =
  let n = Mat.rows a in
  (* Coefficients c_k = (12-k)! 6! / (12! k! (6-k)!), built by the
     standard recurrence c_k = c_{k-1} (p-k+1) / (k (2p-k+1)), p=6. *)
  let c = Array.make 7 1.0 in
  for k = 1 to 6 do
    c.(k) <-
      c.(k - 1)
      *. float_of_int (6 - k + 1)
      /. (float_of_int k *. float_of_int (12 - k + 1))
  done;
  let a2 = Mat.matmul a a in
  let a4 = Mat.matmul a2 a2 in
  let a6 = Mat.matmul a4 a2 in
  let i = Mat.identity n in
  (* Even part E = c0 I + c2 A^2 + c4 A^4 + c6 A^6,
     odd part  O = A (c1 I + c3 A^2 + c5 A^4).
     Then N = E + O, D = E - O, and expm ~ D^{-1} N. *)
  let even =
    Mat.add
      (Mat.add (Mat.scale c.(0) i) (Mat.scale c.(2) a2))
      (Mat.add (Mat.scale c.(4) a4) (Mat.scale c.(6) a6))
  in
  let odd_inner =
    Mat.add (Mat.scale c.(1) i) (Mat.add (Mat.scale c.(3) a2) (Mat.scale c.(5) a4))
  in
  let odd = Mat.matmul a odd_inner in
  let num = Mat.add even odd in
  let den = Mat.sub even odd in
  (* Solve den * X = num column by column. *)
  let f = Lu.factorize den in
  let x = Mat.zeros n n in
  for j = 0 to n - 1 do
    let col = Lu.solve_factorized f (Mat.col num j) in
    Array.iteri (fun i v -> Mat.set x i j v) col
  done;
  x

let expm a =
  if not (Mat.is_square a) then invalid_arg "Expm.expm: not square";
  let norm = Mat.norm_inf a in
  let s =
    if norm <= 0.5 then 0
    else int_of_float (Float.ceil (Float.log2 (norm /. 0.5)))
  in
  let scaled = Mat.scale (1.0 /. Float.pow 2.0 (float_of_int s)) a in
  let e = ref (pade_6 scaled) in
  for _ = 1 to s do
    e := Mat.matmul !e !e
  done;
  !e

(* phi_1 via the block-matrix trick: expm [[A, I]; [0, 0]] has phi_1(A)
   in its upper-right block. *)
let phi1 a =
  if not (Mat.is_square a) then invalid_arg "Expm.phi1: not square";
  let n = Mat.rows a in
  let big =
    Mat.init (2 * n) (2 * n) (fun i j ->
        if i < n && j < n then Mat.get a i j
        else if i < n && j >= n then if j - n = i then 1.0 else 0.0
        else 0.0)
  in
  let e = expm big in
  Mat.init n n (fun i j -> Mat.get e i (j + n))
