(* Tests for the dense linear algebra substrate, and for the
   factorizations the tests keep as references (Chol, Qr, Expm,
   Tridiag). *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose tol = Alcotest.(check (float tol))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A deterministic PRNG for the property tests (qcheck has its own,
   this is for hand-rolled random fixtures). *)
let mk_rand seed = Random.State.make [| seed |]

let random_vec st n = Vec.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let random_mat st n m =
  Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0)

(* Random symmetric positive-definite matrix: A^T A + I. *)
let random_spd st n =
  let a = random_mat st n n in
  Mat.add (Mat.matmul (Mat.transpose a) a) (Mat.identity n)

(* Random diagonally dominant matrix (guaranteed non-singular). *)
let random_dd st n =
  let a = random_mat st n n in
  Mat.init n n (fun i j ->
      if i = j then float_of_int n +. Mat.get a i j else Mat.get a i j)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  check_int "dim" 3 (Vec.dim v);
  check_float "sum" 6.0 (Vec.sum v);
  check_float "mean" 2.0 (Vec.mean v);
  check_float "min" 1.0 (Vec.min v);
  check_float "max" 3.0 (Vec.max v);
  check_int "argmax" 2 (Vec.argmax v);
  check_int "argmin" 0 (Vec.argmin v);
  check_float "norm1" 6.0 (Vec.norm1 v);
  check_float "norm_inf" 3.0 (Vec.norm_inf v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v)

let test_vec_arith () =
  let x = Vec.of_list [ 1.0; -2.0 ] and y = Vec.of_list [ 3.0; 4.0 ] in
  check_bool "add" true (Vec.approx_equal (Vec.add x y) [| 4.0; 2.0 |]);
  check_bool "sub" true (Vec.approx_equal (Vec.sub x y) [| -2.0; -6.0 |]);
  check_bool "scale" true (Vec.approx_equal (Vec.scale 2.0 x) [| 2.0; -4.0 |]);
  check_bool "mul" true (Vec.approx_equal (Vec.mul x y) [| 3.0; -8.0 |]);
  check_bool "axpy" true
    (Vec.approx_equal (Vec.axpy 2.0 x y) [| 5.0; 0.0 |]);
  check_float "dot" (-5.0) (Vec.dot x y);
  check_float "dist2" (sqrt (4.0 +. 36.0)) (Vec.dist2 x y)

let test_vec_inplace () =
  let x = Vec.of_list [ 1.0; 2.0 ] in
  Vec.add_into ~dst:x [| 10.0; 20.0 |];
  check_bool "add_into" true (Vec.approx_equal x [| 11.0; 22.0 |]);
  Vec.scale_into ~dst:x 0.5;
  check_bool "scale_into" true (Vec.approx_equal x [| 5.5; 11.0 |]);
  Vec.axpy_into ~dst:x 2.0 [| 1.0; 1.0 |];
  check_bool "axpy_into" true (Vec.approx_equal x [| 7.5; 13.0 |])

let test_vec_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  check_bool "linspace" true
    (Vec.approx_equal v [| 0.0; 0.25; 0.5; 0.75; 1.0 |])

let test_vec_slice_concat () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check_bool "slice" true (Vec.approx_equal (Vec.slice v 1 2) [| 2.0; 3.0 |]);
  check_bool "concat" true
    (Vec.approx_equal (Vec.concat [| 1.0 |] [| 2.0 |]) [| 1.0; 2.0 |])

let test_vec_errors () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]));
  Alcotest.check_raises "empty mean" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Vec.mean [||]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_mat_basic () =
  let m = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_int "rows" 2 (Mat.rows m);
  check_int "cols" 2 (Mat.cols m);
  check_float "get" 3.0 (Mat.get m 1 0);
  check_float "trace" 5.0 (Mat.trace m);
  check_bool "row" true (Vec.approx_equal (Mat.row m 0) [| 1.0; 2.0 |]);
  check_bool "col" true (Vec.approx_equal (Mat.col m 1) [| 2.0; 4.0 |]);
  check_bool "diag" true (Vec.approx_equal (Mat.diag m) [| 1.0; 4.0 |])

let test_mat_matmul () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = Mat.matmul a b in
  check_bool "matmul" true
    (Mat.approx_equal c (Mat.of_rows [| [| 2.0; 1.0 |]; [| 4.0; 3.0 |] |]))

let test_mat_mulvec () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_bool "mul_vec" true
    (Vec.approx_equal (Mat.mul_vec a [| 1.0; 1.0 |]) [| 3.0; 7.0 |]);
  check_bool "tmul_vec" true
    (Vec.approx_equal (Mat.tmul_vec a [| 1.0; 1.0 |]) [| 4.0; 6.0 |])

let test_mat_identity_pow () =
  let st = mk_rand 7 in
  let a = random_mat st 4 4 in
  check_bool "a^0 = I" true (Mat.approx_equal (Mat.pow a 0) (Mat.identity 4));
  check_bool "a^1 = a" true (Mat.approx_equal (Mat.pow a 1) a);
  check_bool "a^3 = a*a*a" true
    (Mat.approx_equal ~tol:1e-9 (Mat.pow a 3) (Mat.matmul a (Mat.matmul a a)))

let test_mat_outer () =
  let m = Mat.outer [| 1.0; 2.0 |] [| 3.0; 4.0 |] in
  check_bool "outer" true
    (Mat.approx_equal m (Mat.of_rows [| [| 3.0; 4.0 |]; [| 6.0; 8.0 |] |]))

let test_mat_upper_accumulation () =
  (* The barrier oracle's kernels (test/barrier_reference.ml):
     accumulating rank-ones in the upper triangle and mirroring must
     equal the sum of the full outer products. *)
  let st = mk_rand 53 in
  let n = 5 in
  let full = ref (Mat.zeros n n) and upper = Mat.zeros n n in
  for _ = 1 to 10 do
    let x = random_vec st n in
    let c = Random.State.float st 2.0 in
    full := Mat.add !full (Mat.scale c (Mat.outer x x));
    Barrier_reference.add_outer_upper_into upper c x
  done;
  Barrier_reference.mirror_upper upper;
  let full = !full in
  check_bool "matches full update" true (Mat.approx_equal ~tol:1e-12 full upper)

let test_mat_symmetry () =
  let st = mk_rand 11 in
  let a = random_mat st 5 5 in
  check_bool "random not symmetric" false (Mat.is_symmetric a);
  check_bool "symmetrize" true (Mat.is_symmetric (Mat.symmetrize a));
  check_bool "spd symmetric" true (Mat.is_symmetric ~tol:1e-9 (random_spd st 5))

(* ------------------------------------------------------------------ *)
(* Lu *)

let test_lu_solve_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve a [| 3.0; 5.0 |] in
  (* 2x + y = 3, x + 3y = 5 -> x = 4/5, y = 7/5 *)
  check_bool "solution" true (Vec.approx_equal x [| 0.8; 1.4 |])

let test_lu_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_bool "raises Singular" true
    (match Lu.solve a [| 1.0; 1.0 |] with
    | _ -> false
    | exception Lu.Singular _ -> true)

let test_lu_solve_many () =
  let st = mk_rand 5 in
  let a = random_dd st 5 in
  let bs = [ random_vec st 5; random_vec st 5; random_vec st 5 ] in
  let f = Lu.factorize a in
  let xs = List.map (Lu.solve_factorized f) bs in
  List.iter2
    (fun b x ->
      check_bool "residual" true
        (Vec.approx_equal ~tol:1e-9 (Mat.mul_vec a x) b))
    bs xs

(* ------------------------------------------------------------------ *)
(* Chol *)

let test_chol_reconstruct () =
  let st = mk_rand 13 in
  let a = random_spd st 6 in
  let f = Chol.factorize a in
  let l = Chol.lower f in
  check_bool "L L^T = A" true
    (Mat.approx_equal ~tol:1e-8 (Mat.matmul l (Mat.transpose l)) a)

let test_chol_solve () =
  let st = mk_rand 17 in
  let a = random_spd st 8 in
  let b = random_vec st 8 in
  let x = Chol.solve a b in
  check_bool "residual" true (Vec.approx_equal ~tol:1e-8 (Mat.mul_vec a x) b)

let test_chol_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.0; 0.0 |]; [| 0.0; -1.0 |] |] in
  check_bool "raises" true
    (match Chol.factorize a with
    | _ -> false
    | exception Chol.Not_positive_definite _ -> true)

let test_chol_jitter () =
  (* Singular PSD matrix: jitter must rescue it. *)
  let a = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let _f, jitter = Chol.factorize_jittered a in
  check_bool "jitter used" true (jitter > 0.0)

let test_chol_into_matches () =
  let st = mk_rand 67 in
  let f = Chol.preallocate 8 in
  (* Reuse one preallocated factor across several systems. *)
  for _ = 1 to 3 do
    let a = random_spd st 8 in
    let b = random_vec st 8 in
    let jitter, attempts = Chol.factorize_jittered_into f a in
    check_float "no jitter on SPD" 0.0 jitter;
    check_int "one attempt" 1 attempts;
    let x = Vec.zeros 8 in
    Chol.solve_factorized_into f b ~dst:x;
    check_bool "matches Chol.solve" true
      (Vec.approx_equal ~tol:1e-9 x (Chol.solve a b));
    (* In-place solve: dst aliasing b. *)
    let b' = Vec.copy b in
    Chol.solve_factorized_into f b' ~dst:b';
    check_bool "in-place solve" true (Vec.approx_equal ~tol:1e-12 b' x)
  done

let test_chol_into_jitter () =
  (* Singular PSD matrix: the in-place path must jitter and retry,
     reporting the attempt count, without corrupting the workspace for
     later factorizations. *)
  let f = Chol.preallocate 2 in
  let singular = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let jitter, attempts = Chol.factorize_jittered_into f singular in
  check_bool "jitter used" true (jitter > 0.0);
  check_bool "several attempts" true (attempts > 1);
  let spd = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  let jitter, _ = Chol.factorize_jittered_into f spd in
  check_float "workspace reusable" 0.0 jitter;
  let x = Vec.zeros 2 in
  Chol.solve_factorized_into f [| 4.0; 9.0 |] ~dst:x;
  check_bool "diag solve" true (Vec.approx_equal ~tol:1e-12 x [| 2.0; 3.0 |])

let test_chol_logdet () =
  let a = Mat.of_diag [| 2.0; 3.0; 4.0 |] in
  let f = Chol.factorize a in
  check_float_loose 1e-9 "log det" (log 24.0) (Chol.log_det f)

(* ------------------------------------------------------------------ *)
(* Qr *)

let test_qr_exact_solve () =
  (* Square invertible: least squares is the exact solution. *)
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Qr.solve_least_squares a [| 3.0; 5.0 |] in
  check_bool "matches LU" true (Vec.approx_equal ~tol:1e-9 x [| 0.8; 1.4 |])

let test_qr_overdetermined () =
  (* Fit y = a + b t through 4 points with known LS solution. *)
  let a =
    Mat.of_rows
      [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |]; [| 1.0; 3.0 |] |]
  in
  let b = [| 0.0; 1.1; 1.9; 3.1 |] in
  let x = Qr.solve_least_squares a b in
  (* Normal equations solved by hand: slope ~ 1.03, intercept ~ -0.02. *)
  let atb = Mat.tmul_vec a b in
  let ata = Mat.matmul (Mat.transpose a) a in
  let expect = Lu.solve ata atb in
  check_bool "normal equations agree" true (Vec.approx_equal ~tol:1e-9 x expect)

let test_qr_r_upper () =
  let st = mk_rand 23 in
  let a = random_mat st 6 4 in
  let f = Qr.factorize a in
  let r = Qr.r f in
  let ok = ref true in
  for i = 0 to 3 do
    for j = 0 to i - 1 do
      if Float.abs (Mat.get r i j) > 1e-12 then ok := false
    done
  done;
  check_bool "R upper triangular" true !ok

let test_qr_rank_deficient () =
  let a = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  check_bool "raises" true
    (match Qr.solve_least_squares a [| 1.0; 2.0; 3.0 |] with
    | _ -> false
    | exception Qr.Rank_deficient _ -> true)

(* ------------------------------------------------------------------ *)
(* Expm *)

let test_expm_zero () =
  check_bool "e^0 = I" true
    (Mat.approx_equal (Expm.expm (Mat.zeros 3 3)) (Mat.identity 3))

let test_expm_diag () =
  let a = Mat.of_diag [| 1.0; -2.0; 0.5 |] in
  let e = Expm.expm a in
  check_bool "diagonal exp" true
    (Mat.approx_equal ~tol:1e-12
       e
       (Mat.of_diag [| exp 1.0; exp (-2.0); exp 0.5 |]))

let test_expm_nilpotent () =
  (* exp [[0,1],[0,0]] = [[1,1],[0,1]] exactly. *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  check_bool "nilpotent" true
    (Mat.approx_equal ~tol:1e-12 (Expm.expm a)
       (Mat.of_rows [| [| 1.0; 1.0 |]; [| 0.0; 1.0 |] |]))

let test_expm_additivity () =
  (* e^(A) e^(A) = e^(2A) for any A. *)
  let st = mk_rand 29 in
  let a = random_mat st 4 4 in
  let e1 = Expm.expm a in
  let e2 = Expm.expm (Mat.scale 2.0 a) in
  check_bool "semigroup" true
    (Mat.approx_equal ~tol:1e-8 (Mat.matmul e1 e1) e2)

let test_expm_phi1 () =
  (* phi1(0) = I; for invertible A, phi1(A) = A^-1 (e^A - I). *)
  check_bool "phi1 at zero" true
    (Mat.approx_equal ~tol:1e-10 (Expm.phi1 (Mat.zeros 3 3)) (Mat.identity 3));
  let a = Mat.of_diag [| 1.0; -0.5 |] in
  let expect =
    Mat.of_diag [| exp 1.0 -. 1.0; (exp (-0.5) -. 1.0) /. -0.5 |]
  in
  check_bool "phi1 diagonal" true
    (Mat.approx_equal ~tol:1e-10 (Expm.phi1 a) expect)

(* ------------------------------------------------------------------ *)
(* Tridiag *)

let test_tridiag_solve () =
  let lower = [| 1.0; 1.0 |]
  and diag = [| 4.0; 4.0; 4.0 |]
  and upper = [| 1.0; 1.0 |] in
  let rhs = [| 5.0; 6.0; 5.0 |] in
  let x = Tridiag.solve ~lower ~diag ~upper ~rhs in
  let back = Tridiag.mul_vec ~lower ~diag ~upper x in
  check_bool "residual" true (Vec.approx_equal ~tol:1e-12 back rhs)

let test_tridiag_matches_dense () =
  let st = mk_rand 31 in
  let n = 8 in
  let diag = Vec.init n (fun _ -> 5.0 +. Random.State.float st 1.0) in
  let lower = Vec.init (n - 1) (fun _ -> Random.State.float st 1.0) in
  let upper = Vec.init (n - 1) (fun _ -> Random.State.float st 1.0) in
  let rhs = random_vec st n in
  let dense =
    Mat.init n n (fun i j ->
        if i = j then diag.(i)
        else if i = j + 1 then lower.(j)
        else if j = i + 1 then upper.(i)
        else 0.0)
  in
  let x_tri = Tridiag.solve ~lower ~diag ~upper ~rhs in
  let x_lu = Lu.solve dense rhs in
  check_bool "matches dense LU" true (Vec.approx_equal ~tol:1e-9 x_tri x_lu)

(* ------------------------------------------------------------------ *)
(* Block_tridiag *)

(* Block index of each coordinate under a partition. *)
let block_of_index sizes =
  let n = Array.fold_left ( + ) 0 sizes in
  let blk = Array.make n 0 in
  let i = ref 0 in
  Array.iteri
    (fun k nk ->
      for _ = 1 to nk do
        blk.(!i) <- k;
        incr i
      done)
    sizes;
  blk

(* Random SPD matrix supported on the block band: a symmetric random
   matrix masked to the band, made diagonally dominant. *)
let random_block_banded st sizes =
  let n = Array.fold_left ( + ) 0 sizes in
  let blk = block_of_index sizes in
  let a = random_mat st n n in
  let m =
    Mat.init n n (fun i j ->
        if abs (blk.(i) - blk.(j)) <= 1 then
          0.5 *. (Mat.get a i j +. Mat.get a j i)
        else 0.0)
  in
  for i = 0 to n - 1 do
    let row = ref 1.0 in
    for j = 0 to n - 1 do
      if j <> i then row := !row +. Float.abs (Mat.get m i j)
    done;
    Mat.set m i i (!row +. Float.abs (Mat.get m i i))
  done;
  m

(* Three inputs: a four-block partition; the one-block partition
   [| n |], which is how the conic solver factorizes an instance
   without a partition; and a one-block matrix with a zero first row
   and column, which fails the bare attempt and needs jitter (its
   right-hand side is zero there, so the solution stays O(1)).  Each
   must reproduce the dense Cholesky's solution, and its jitter and
   attempt count exactly. *)
let test_block_tridiag_matches_dense () =
  let st = mk_rand 53 in
  let against_chol label sizes a b =
    let n = Mat.rows a in
    let fac = Block_tridiag.preallocate sizes in
    check_int (label ^ ": dim") n (Block_tridiag.dim fac);
    let jitter, tries = Block_tridiag.factorize_jittered_into fac a in
    let chol = Chol.preallocate n in
    let chol_jitter, chol_tries = Chol.factorize_jittered_into chol a in
    check_bool (label ^ ": Chol's jitter") true (Float.equal chol_jitter jitter);
    check_int (label ^ ": Chol's attempts") chol_tries tries;
    let x = Vec.zeros n in
    Block_tridiag.solve_factorized_into fac b ~dst:x;
    check_bool (label ^ ": matches dense cholesky") true
      (Vec.approx_equal ~tol:1e-10 x (Chol.solve_factorized chol b));
    (jitter, tries)
  in
  let sizes = [| 3; 4; 2; 3 |] in
  let a = random_block_banded st sizes in
  let n = Mat.rows a in
  let jitter, tries = against_chol "four blocks" sizes a (random_vec st n) in
  check_float "no jitter needed" 0.0 jitter;
  check_int "one attempt" 1 tries;
  let a = random_block_banded st [| n |] in
  ignore (against_chol "one block" [| n |] a (random_vec st n));
  for k = 0 to n - 1 do
    Mat.set a 0 k 0.0;
    Mat.set a k 0 0.0
  done;
  let b = random_vec st n in
  b.(0) <- 0.0;
  let jitter, tries = against_chol "one block, jittered" [| n |] a b in
  check_bool "jitter applied" true (jitter > 0.0);
  check_bool "retried" true (tries > 1)

let test_block_tridiag_scalar_blocks () =
  (* All-scalar partition degenerates to an ordinary tridiagonal
     system; cross-check against the Thomas solver. *)
  let st = mk_rand 59 in
  let n = 7 in
  let sizes = Array.make n 1 in
  let a = random_block_banded st sizes in
  let fac = Block_tridiag.preallocate sizes in
  ignore (Block_tridiag.factorize_jittered_into fac a);
  let b = random_vec st n in
  let x = Vec.zeros n in
  Block_tridiag.solve_factorized_into fac b ~dst:x;
  let diag = Vec.init n (fun i -> Mat.get a i i) in
  let lower = Vec.init (n - 1) (fun i -> Mat.get a (i + 1) i) in
  let upper = Vec.init (n - 1) (fun i -> Mat.get a i (i + 1)) in
  let x_tri = Tridiag.solve ~lower ~diag ~upper ~rhs:b in
  check_bool "matches thomas" true (Vec.approx_equal ~tol:1e-10 x x_tri)

let test_block_tridiag_ignores_out_of_band () =
  (* Only in-band entries of the lower triangle are read: garbage
     outside the band must not change the factorization. *)
  let st = mk_rand 61 in
  let sizes = [| 2; 3; 2 |] in
  let a = random_block_banded st sizes in
  let n = Mat.rows a in
  let blk = block_of_index sizes in
  let dirty = Mat.init n n (fun i j -> Mat.get a i j) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if abs (blk.(i) - blk.(j)) > 1 then Mat.set dirty i j 1e12
    done
  done;
  let b = random_vec st n in
  let solve_with m =
    let fac = Block_tridiag.preallocate sizes in
    ignore (Block_tridiag.factorize_jittered_into fac m);
    let x = Vec.zeros n in
    Block_tridiag.solve_factorized_into fac b ~dst:x;
    x
  in
  check_bool "garbage outside band ignored" true
    (Vec.approx_equal ~tol:1e-12 (solve_with a) (solve_with dirty))

let test_block_tridiag_singular_leading_block () =
  (* A singular leading block fails the bare attempt and forces the
     jitter-retry schedule; the factor then solves A + jitter*I. *)
  let st = mk_rand 67 in
  let sizes = [| 3; 4; 2 |] in
  let a = random_block_banded st sizes in
  for i = 0 to sizes.(0) - 1 do
    for j = 0 to sizes.(0) - 1 do
      Mat.set a i j 0.0
    done
  done;
  let fac = Block_tridiag.preallocate sizes in
  check_bool "bare attempt rejects" true
    (try
       Block_tridiag.factorize_attempt_into fac ~jitter:0.0 a;
       false
     with Block_tridiag.Not_positive_definite _ -> true);
  let jitter, tries = Block_tridiag.factorize_jittered_into fac a in
  check_bool "jitter applied" true (jitter > 0.0);
  check_bool "retried" true (tries > 1);
  let n = Mat.rows a in
  let b = random_vec st n in
  let x = Vec.zeros n in
  Block_tridiag.solve_factorized_into fac b ~dst:x;
  let shifted =
    Mat.init n n (fun i j ->
        Mat.get a i j +. if i = j then jitter else 0.0)
  in
  check_bool "solves the jittered system" true
    (Vec.approx_equal ~tol:1e-8 x (Lu.solve shifted b))

(* The kernel before the factor became a flat array: the same
   recurrences, in the same arithmetic order, through bounds-checked
   [Mat.get]/[Mat.set].  Kept as the bit-identity oracle. *)
module Mat_kernel = struct
  type t = { off : int array; blk : int array; l : Mat.t }

  let preallocate sizes =
    let k = Array.length sizes in
    let off = Array.make (k + 1) 0 in
    for b = 0 to k - 1 do
      off.(b + 1) <- off.(b) + sizes.(b)
    done;
    { off; blk = block_of_index sizes; l = Mat.zeros off.(k) off.(k) }

  let attempt t ~jitter a =
    let n = Array.length t.blk in
    let l = t.l and off = t.off and blk = t.blk in
    for i = 0 to n - 1 do
      let bi = blk.(i) in
      let lo = if bi = 0 then 0 else off.(bi - 1) in
      for j = lo to i do
        let acc = ref (Mat.get a i j +. if i = j then jitter else 0.0) in
        for k = lo to j - 1 do
          acc := !acc -. (Mat.get l i k *. Mat.get l j k)
        done;
        if i = j then begin
          if !acc <= 0.0 then raise (Block_tridiag.Not_positive_definite i);
          Mat.set l i i (sqrt !acc)
        end
        else Mat.set l i j (!acc /. Mat.get l j j)
      done
    done

  let factorize_jittered t a =
    match attempt t ~jitter:0.0 a with
    | () -> (0.0, 1)
    | exception Block_tridiag.Not_positive_definite _ ->
        let diag_scale =
          let acc = ref 1.0 in
          for i = 0 to Mat.rows a - 1 do
            acc := Float.max !acc (Float.abs (Mat.get a i i))
          done;
          !acc
        in
        let rec retry jitter tries =
          if tries > 20 then raise (Block_tridiag.Not_positive_definite (-1))
          else
            match attempt t ~jitter a with
            | () -> (jitter, tries + 1)
            | exception Block_tridiag.Not_positive_definite _ ->
                retry (jitter *. 10.0) (tries + 1)
        in
        retry (1e-10 *. diag_scale) 1

  let solve t b ~dst =
    let n = Array.length t.blk in
    let l = t.l and off = t.off and blk = t.blk in
    let nblocks = Array.length off - 1 in
    Vec.blit ~src:b ~dst;
    for i = 0 to n - 1 do
      let bi = blk.(i) in
      let lo = if bi = 0 then 0 else off.(bi - 1) in
      let acc = ref dst.(i) in
      for j = lo to i - 1 do
        acc := !acc -. (Mat.get l i j *. dst.(j))
      done;
      dst.(i) <- !acc /. Mat.get l i i
    done;
    for i = n - 1 downto 0 do
      let bi = blk.(i) in
      let hi = (if bi + 1 >= nblocks then off.(nblocks) else off.(bi + 2)) - 1 in
      let acc = ref dst.(i) in
      for j = i + 1 to hi do
        acc := !acc -. (Mat.get l j i *. dst.(j))
      done;
      dst.(i) <- !acc /. Mat.get l i i
    done
end

let same_bits name a b =
  check_bool name true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b)

let test_block_tridiag_bit_identical () =
  let st = mk_rand 71 in
  List.iteri
    (fun case (sizes, singular_lead) ->
      let a = random_block_banded st sizes in
      if singular_lead then
        for i = 0 to sizes.(0) - 1 do
          for j = 0 to sizes.(0) - 1 do
            Mat.set a i j 0.0
          done
        done;
      let n = Mat.rows a in
      let flat = Block_tridiag.preallocate sizes in
      let old = Mat_kernel.preallocate sizes in
      let jitter, tries = Block_tridiag.factorize_jittered_into flat a in
      let jitter', tries' = Mat_kernel.factorize_jittered old a in
      let name what = Printf.sprintf "case %d: %s" case what in
      check_int (name "attempts") tries' tries;
      same_bits (name "jitter") [| jitter' |] [| jitter |];
      if singular_lead then check_bool (name "retried") true (tries > 1);
      same_bits (name "factor")
        (Array.concat (Array.to_list (Mat.to_rows old.Mat_kernel.l)))
        (Array.concat (Array.to_list (Mat.to_rows (Block_tridiag.factor flat))));
      let b = random_vec st n in
      let x = Vec.zeros n and x' = Vec.zeros n in
      Block_tridiag.solve_factorized_into flat b ~dst:x;
      Mat_kernel.solve old b ~dst:x';
      same_bits (name "solve") x' x)
    [
      ([| 3; 4; 2; 3 |], false);
      ([| 8; 8 |], false);
      ([| 8; 8; 2 |], false);
      (Array.make 7 1, false);
      ([| 5 |], false);
      ([| 3; 4; 2 |], true);
    ]

let test_block_tridiag_allocation_free () =
  let st = mk_rand 73 in
  let sizes = [| 8; 8; 2 |] in
  let a = random_block_banded st sizes in
  let n = Mat.rows a in
  let fac = Block_tridiag.preallocate sizes in
  let b = random_vec st n and x = Vec.zeros n in
  ignore (Block_tridiag.factorize_jittered_into fac a);
  Block_tridiag.solve_factorized_into fac b ~dst:x;
  let pairs = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to pairs do
    ignore (Block_tridiag.factorize_jittered_into fac a);
    Block_tridiag.solve_factorized_into fac b ~dst:x
  done;
  (* The second [Gc.minor_words] boxes its result: 2 words in total. *)
  let words = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "%.0f minor words for %d factorize + solve pairs" words
       pairs)
    true (words <= 2.0)

let test_block_tridiag_rejects_bad_partition () =
  check_bool "zero block size" true
    (try
       ignore (Block_tridiag.preallocate [| 2; 0; 3 |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Property tests (qcheck) *)

let spd_gen =
  (* Generate an SPD matrix and rhs of matching size. *)
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    return (n, seed))

let prop_lu_solve_residual =
  QCheck2.Test.make ~name:"lu: A x = b residual small" ~count:100 spd_gen
    (fun (n, seed) ->
      let st = mk_rand seed in
      let a = random_dd st n in
      let b = random_vec st n in
      let x = Lu.solve a b in
      Vec.dist2 (Mat.mul_vec a x) b <= 1e-8 *. Float.max 1.0 (Vec.norm2 b))

let prop_chol_matches_lu =
  QCheck2.Test.make ~name:"chol: solve matches lu on SPD" ~count:100 spd_gen
    (fun (n, seed) ->
      let st = mk_rand seed in
      let a = random_spd st n in
      let b = random_vec st n in
      let x1 = Chol.solve a b in
      let x2 = Lu.solve a b in
      Vec.dist2 x1 x2 <= 1e-7 *. Float.max 1.0 (Vec.norm2 x2))

let prop_expm_inverse =
  QCheck2.Test.make ~name:"expm: e^A e^-A = I" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = mk_rand seed in
      let a = random_mat st 4 4 in
      let p = Mat.matmul (Expm.expm a) (Expm.expm (Mat.scale (-1.0) a)) in
      Mat.approx_equal ~tol:1e-7 p (Mat.identity 4))

let prop_dot_cauchy_schwarz =
  QCheck2.Test.make ~name:"vec: |x.y| <= |x||y|" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = mk_rand seed in
      let n = 1 + Random.State.int st 20 in
      let x = random_vec st n and y = random_vec st n in
      Float.abs (Vec.dot x y) <= (Vec.norm2 x *. Vec.norm2 y) +. 1e-12)

(* [Mat.mul_vec_into] against the one-row, one-accumulator loop, bit
   for bit: every entry must be the left-to-right sum from 0.0 that
   mat.mli guarantees, whatever blocking the kernel uses.  Shapes run
   over 0-37 in both dimensions, so every row count mod 4 and mod 8
   occurs, and the entries are ordinary values of many magnitudes (so
   a reassociated sum rounds differently), in half of the cases mixed
   with signed zeros, subnormals, infinities and NaN. *)
let special_floats =
  [| 0.0; -0.0; Float.min_float /. 8.0; -.(Float.min_float *. 0.75);
     Float.infinity; Float.neg_infinity; Float.nan |]

let bit_test_float ~specials st =
  if specials && Random.State.int st 16 = 0 then
    special_floats.(Random.State.int st (Array.length special_floats))
  else
    (Random.State.float st 2.0 -. 1.0)
    *. Float.pow 10.0 (float_of_int (Random.State.int st 9 - 4))

let naive_mul_vec a x =
  Array.init (Mat.rows a) (fun i ->
      let acc = ref 0.0 in
      for j = 0 to Mat.cols a - 1 do
        acc := !acc +. (Mat.get a i j *. x.(j))
      done;
      !acc)

let prop_mul_vec_into_bits =
  QCheck2.Test.make ~name:"mat: mul_vec_into bit-identical to the one-row loop"
    ~count:500
    QCheck2.Gen.(triple (int_range 0 37) (int_range 0 37) (int_range 0 1_000_000))
    (fun (rows, cols, seed) ->
      let st = mk_rand seed in
      let specials = Random.State.bool st in
      let a = Mat.init rows cols (fun _ _ -> bit_test_float ~specials st) in
      let x = Vec.init cols (fun _ -> bit_test_float ~specials st) in
      let dst = Vec.create rows Float.nan in
      Mat.mul_vec_into a x ~dst;
      let expected = naive_mul_vec a x in
      Array.for_all2
        (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
        dst expected)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mul_vec_into_bits;
      prop_lu_solve_residual;
      prop_chol_matches_lu;
      prop_expm_inverse;
      prop_dot_cauchy_schwarz;
    ]

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic reductions" `Quick test_vec_basic;
          Alcotest.test_case "arithmetic" `Quick test_vec_arith;
          Alcotest.test_case "in-place ops" `Quick test_vec_inplace;
          Alcotest.test_case "linspace" `Quick test_vec_linspace;
          Alcotest.test_case "slice and concat" `Quick test_vec_slice_concat;
          Alcotest.test_case "errors" `Quick test_vec_errors;
        ] );
      ( "mat",
        [
          Alcotest.test_case "accessors" `Quick test_mat_basic;
          Alcotest.test_case "matmul" `Quick test_mat_matmul;
          Alcotest.test_case "mat-vec products" `Quick test_mat_mulvec;
          Alcotest.test_case "powers" `Quick test_mat_identity_pow;
          Alcotest.test_case "outer products" `Quick test_mat_outer;
          Alcotest.test_case "upper-triangle accumulation" `Quick
            test_mat_upper_accumulation;
          Alcotest.test_case "symmetry" `Quick test_mat_symmetry;
        ] );
      ( "lu",
        [
          Alcotest.test_case "known 2x2 solve" `Quick test_lu_solve_known;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "multiple rhs" `Quick test_lu_solve_many;
        ] );
      ( "chol",
        [
          Alcotest.test_case "reconstruction" `Quick test_chol_reconstruct;
          Alcotest.test_case "solve" `Quick test_chol_solve;
          Alcotest.test_case "rejects indefinite" `Quick
            test_chol_rejects_indefinite;
          Alcotest.test_case "jittered factorization" `Quick test_chol_jitter;
          Alcotest.test_case "in-place factorize and solve" `Quick
            test_chol_into_matches;
          Alcotest.test_case "in-place jitter retry" `Quick
            test_chol_into_jitter;
          Alcotest.test_case "log det" `Quick test_chol_logdet;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square solve" `Quick test_qr_exact_solve;
          Alcotest.test_case "overdetermined LS" `Quick test_qr_overdetermined;
          Alcotest.test_case "R is upper triangular" `Quick test_qr_r_upper;
          Alcotest.test_case "rank deficiency" `Quick test_qr_rank_deficient;
        ] );
      ( "expm",
        [
          Alcotest.test_case "exp of zero" `Quick test_expm_zero;
          Alcotest.test_case "diagonal" `Quick test_expm_diag;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "semigroup property" `Quick test_expm_additivity;
          Alcotest.test_case "phi1" `Quick test_expm_phi1;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "solve small" `Quick test_tridiag_solve;
          Alcotest.test_case "matches dense" `Quick test_tridiag_matches_dense;
        ] );
      ( "block_tridiag",
        [
          Alcotest.test_case "matches dense cholesky" `Quick
            test_block_tridiag_matches_dense;
          Alcotest.test_case "scalar blocks match thomas" `Quick
            test_block_tridiag_scalar_blocks;
          Alcotest.test_case "ignores out-of-band entries" `Quick
            test_block_tridiag_ignores_out_of_band;
          Alcotest.test_case "singular leading block jitters" `Quick
            test_block_tridiag_singular_leading_block;
          Alcotest.test_case "rejects bad partition" `Quick
            test_block_tridiag_rejects_bad_partition;
          Alcotest.test_case "bit-identical to the Mat kernel" `Quick
            test_block_tridiag_bit_identical;
          Alcotest.test_case "factorize and solve allocate nothing" `Quick
            test_block_tridiag_allocation_free;
        ] );
      ("properties", props);
    ]
