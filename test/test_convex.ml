(* Tests for the convex optimization substrate: quadratic forms, the
   conic solver and its certificates, KKT residuals, and the two
   reference solvers it is checked against — the dense log-barrier
   method of test/barrier_reference.ml (damped Newton, phase I, the
   two-phase driver, LPs) and the simplex of test/simplex_reference.ml. *)

open Linalg
open Convex

let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

let mk_rand seed = Random.State.make [| seed |]
let random_vec st n = Vec.init n (fun _ -> Random.State.float st 2.0 -. 1.0)

let random_spd st n =
  let a = Mat.init n n (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  Mat.add (Mat.matmul (Mat.transpose a) a) (Mat.identity n)

(* ------------------------------------------------------------------ *)
(* Quad *)

let test_quad_affine_eval () =
  let f = Quad.affine [| 1.0; -2.0 |] 3.0 in
  check_float 1e-12 "eval" 2.0 (Quad.eval f [| 1.0; 1.0 |]);
  check_bool "grad" true
    (Vec.approx_equal (Quad.grad f [| 5.0; 5.0 |]) [| 1.0; -2.0 |]);
  check_bool "affine" true (Quad.is_affine f)

let test_quad_quadratic_eval () =
  (* f(x) = 1/2 (2 x0^2 + 2 x1^2) + x0 = x0^2 + x1^2 + x0 *)
  let f = Quad.quadratic (Mat.of_diag [| 2.0; 2.0 |]) [| 1.0; 0.0 |] 0.0 in
  check_float 1e-12 "eval" 3.0 (Quad.eval f [| 1.0; 1.0 |]);
  check_bool "grad" true
    (Vec.approx_equal (Quad.grad f [| 1.0; 1.0 |]) [| 3.0; 2.0 |]);
  check_bool "psd" true (Quad.hess_is_psd f)

let test_quad_square_of_affine () =
  (* (x0 - x1 + 2)^2 at (1, 0) = 9. *)
  let f = Quad.square_of_affine [| 1.0; -1.0 |] 2.0 in
  check_float 1e-12 "eval" 9.0 (Quad.eval f [| 1.0; 0.0 |]);
  (* gradient: 2 (q.x + r) q = 2*3*(1,-1) = (6,-6) *)
  check_bool "grad" true
    (Vec.approx_equal (Quad.grad f [| 1.0; 0.0 |]) [| 6.0; -6.0 |]);
  check_bool "psd" true (Quad.hess_is_psd f)

let test_quad_algebra () =
  let f = Quad.square_of_affine [| 1.0 |] 0.0 in
  let g = Quad.affine [| 2.0 |] 1.0 in
  let h = Quad.add f (Quad.scale 3.0 g) in
  (* x^2 + 6x + 3 at x=2: 4 + 12 + 3 = 19 *)
  check_float 1e-12 "combo" 19.0 (Quad.eval h [| 2.0 |]);
  let s = Quad.sub h h in
  check_float 1e-12 "self-sub" 0.0 (Quad.eval s [| 7.0 |])

let test_quad_extend () =
  let f = Quad.square_of_affine [| 1.0; 1.0 |] 0.0 in
  let g = Barrier_reference.extend_quad f 4 in
  check_int "dim" 4 (Quad.dim g);
  check_float 1e-12 "ignores new coords" 4.0
    (Quad.eval g [| 1.0; 1.0; 99.0; -99.0 |])

let test_quad_grad_finite_difference () =
  let st = mk_rand 2 in
  let n = 5 in
  let f = Quad.quadratic (random_spd st n) (random_vec st n) 0.3 in
  let x = random_vec st n in
  let g = Quad.grad f x in
  let h = 1e-6 in
  for i = 0 to n - 1 do
    let xp = Vec.copy x and xm = Vec.copy x in
    xp.(i) <- xp.(i) +. h;
    xm.(i) <- xm.(i) -. h;
    let fd = (Quad.eval f xp -. Quad.eval f xm) /. (2.0 *. h) in
    check_float 1e-5 "fd grad" fd g.(i)
  done

(* ------------------------------------------------------------------ *)
(* Damped Newton (the reference barrier's inner loop) *)

let quad_bowl_oracle p q =
  (* f(x) = 1/2 x'Px + q'x *)
  let f = Quad.quadratic p q 0.0 in
  {
    Barrier_reference.value = (fun x -> Some (Quad.eval f x));
    grad_hess_into =
      (fun x ~g ~h ->
        Vec.blit ~src:(Quad.grad f x) ~dst:g;
        Mat.fill h 0.0;
        Barrier_reference.add_scaled_hess_upper_into f 1.0 ~dst:h;
        Barrier_reference.mirror_upper h);
  }

let test_newton_quadratic_one_step () =
  (* On a quadratic, Newton converges in one damped step. *)
  let st = mk_rand 4 in
  let n = 6 in
  let p = random_spd st n in
  let q = random_vec st n in
  let r = Barrier_reference.minimize (quad_bowl_oracle p q) (Vec.zeros n) in
  check_bool "converged" true
    (r.Barrier_reference.outcome = Barrier_reference.Converged);
  (* optimum solves P x = -q *)
  let expect = Chol.solve p (Vec.neg q) in
  check_bool "argmin" true
    (Vec.approx_equal ~tol:1e-6 r.Barrier_reference.x expect);
  check_bool "few iterations" true (r.Barrier_reference.iterations <= 3)

let test_newton_respects_domain () =
  (* minimize -log(x) + x on x > 0: optimum at x = 1. *)
  let oracle =
    {
      Barrier_reference.value =
        (fun x -> if x.(0) <= 0.0 then None else Some (x.(0) -. log x.(0)));
      grad_hess_into =
        (fun x ~g ~h ->
          g.(0) <- 1.0 -. (1.0 /. x.(0));
          Mat.set h 0 0 (1.0 /. (x.(0) *. x.(0))));
    }
  in
  let r = Barrier_reference.minimize oracle [| 0.01 |] in
  check_bool "converged" true
    (r.Barrier_reference.outcome = Barrier_reference.Converged);
  check_float 1e-6 "optimum" 1.0 r.Barrier_reference.x.(0)

let test_newton_rejects_bad_start () =
  let oracle =
    {
      Barrier_reference.value =
        (fun x -> if x.(0) <= 0.0 then None else Some x.(0));
      grad_hess_into =
        (fun _ ~g ~h ->
          g.(0) <- 1.0;
          Mat.set h 0 0 1.0);
    }
  in
  check_bool "raises" true
    (match Barrier_reference.minimize oracle [| -1.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* The reference barrier on problems with known solutions *)

(* The box [lo <= x_i <= hi] as two [q(x) <= 0] rows. *)
let box_rows n i ~lo ~hi =
  let e = Vec.zeros n in
  e.(i) <- 1.0;
  [ Quad.affine (Array.map Float.neg e) lo; Quad.affine e (-.hi) ]

let test_barrier_box_lp () =
  (* minimize x0 + x1 s.t. 0 <= xi <= 1: optimum (0,0), value 0. *)
  let n = 2 in
  let constraints =
    Array.of_list
      (List.concat_map (fun i -> box_rows n i ~lo:0.0 ~hi:1.0) [ 0; 1 ])
  in
  let p =
    { Quad.objective = Quad.affine [| 1.0; 1.0 |] 0.0; constraints }
  in
  let r = Barrier_reference.solve p [| 0.5; 0.5 |] in
  check_float 1e-5 "value" 0.0 r.Barrier_reference.objective_value;
  check_bool "near corner" true (Vec.norm_inf r.Barrier_reference.x < 1e-4)

let test_barrier_projection () =
  (* minimize ||x - (2,2)||^2 s.t. x0 + x1 <= 2: projection (1,1). *)
  let obj =
    Quad.add
      (Quad.square_of_affine [| 1.0; 0.0 |] (-2.0))
      (Quad.square_of_affine [| 0.0; 1.0 |] (-2.0))
  in
  let constraints = [| Quad.affine [| 1.0; 1.0 |] (-2.0) |] in
  let r =
    Barrier_reference.solve { Quad.objective = obj; constraints } [| 0.0; 0.0 |]
  in
  check_bool "projection" true
    (Vec.approx_equal ~tol:1e-4 r.Barrier_reference.x [| 1.0; 1.0 |]);
  (* The dual of the active constraint must be ~2 (from KKT:
     2(x0-2) + lambda = 0 at x0=1). *)
  check_float 1e-3 "dual" 2.0 r.Barrier_reference.dual.(0)

let test_barrier_inactive_constraint () =
  (* minimize (x-1)^2 s.t. x <= 100: unconstrained optimum x=1. *)
  let obj = Quad.square_of_affine [| 1.0 |] (-1.0) in
  let constraints = [| Quad.affine [| 1.0 |] (-100.0) |] in
  let r =
    Barrier_reference.solve { Quad.objective = obj; constraints } [| 0.0 |]
  in
  check_float 1e-5 "optimum" 1.0 r.Barrier_reference.x.(0);
  check_bool "dual tiny" true (r.Barrier_reference.dual.(0) < 1e-4)

let test_barrier_quadratic_constraint () =
  (* minimize x0 + x1 s.t. x0^2 + x1^2 <= 1: optimum (-1/sqrt2, -1/sqrt2),
     value -sqrt(2). *)
  let obj = Quad.affine [| 1.0; 1.0 |] 0.0 in
  let ball = Quad.quadratic (Mat.of_diag [| 2.0; 2.0 |]) (Vec.zeros 2) (-1.0) in
  let r =
    Barrier_reference.solve { Quad.objective = obj; constraints = [| ball |] }
      [| 0.0; 0.0 |]
  in
  check_float 1e-4 "value" (-.sqrt 2.0) r.Barrier_reference.objective_value;
  let s = -1.0 /. sqrt 2.0 in
  check_bool "argmin" true
    (Vec.approx_equal ~tol:1e-4 r.Barrier_reference.x [| s; s |])

let test_barrier_rejects_infeasible_start () =
  let constraints = [| Quad.affine [| 1.0 |] 0.0 |] in
  let p = { Quad.objective = Quad.affine [| 1.0 |] 0.0; constraints } in
  check_bool "raises" true
    (match Barrier_reference.solve p [| 1.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_barrier_unconstrained () =
  let obj = Quad.square_of_affine [| 1.0 |] (-3.0) in
  let r =
    Barrier_reference.solve
      { Quad.objective = obj; constraints = [||] }
      [| 0.0 |]
  in
  check_float 1e-6 "optimum" 3.0 r.Barrier_reference.x.(0)

(* Random QCQP, strictly feasible at the origin: box rows, a few extra
   affine rows, and one or two quadratic balls. *)
let random_qcqp st n =
  let obj = Quad.quadratic (random_spd st n) (random_vec st n) 0.0 in
  let boxes =
    Array.init (2 * n) (fun k ->
        let i = k / 2 in
        if k mod 2 = 0 then
          Quad.add_constant (Quad.linear_coord n i (-1.0)) (-1.0)
        else Quad.add_constant (Quad.linear_coord n i 1.0) (-1.0))
  in
  let extra =
    Array.init
      (1 + Random.State.int st 3)
      (fun _ ->
        Quad.affine (random_vec st n) (-.(1.5 +. Random.State.float st 1.0)))
  in
  let balls =
    Array.init
      (1 + Random.State.int st 2)
      (fun _ ->
        let rad = 0.8 +. Random.State.float st 1.0 in
        Quad.quadratic
          (Mat.scale 2.0 (Mat.identity n))
          (Vec.zeros n)
          (-.(rad *. rad)))
  in
  (obj, Array.concat [ boxes; extra; balls ])

(* Shared generator for the randomized solver tests: a dimension and a
   PRNG seed. *)
let qp_gen =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* seed = int_range 0 1_000_000 in
    return (n, seed))

let test_barrier_stats () =
  (* The instrumentation counters must be populated and consistent. *)
  let st = mk_rand 73 in
  let obj, constraints = random_qcqp st 3 in
  let p = { Quad.objective = obj; constraints } in
  let r = Barrier_reference.solve p (Vec.zeros 3) in
  let s = r.Barrier_reference.stats in
  check_bool "centerings > 0" true (s.Barrier_reference.centering_steps > 0);
  check_bool "newton > 0" true (s.Barrier_reference.newton_iterations > 0);
  check_bool "factorizations >= newton" true
    (s.Barrier_reference.factorizations >= s.Barrier_reference.newton_iterations)

(* ------------------------------------------------------------------ *)
(* The reference's phase I and two-phase driver *)

let test_phase1_finds_point () =
  (* Feasible set: 1 <= x <= 2, start from 0 (infeasible). *)
  let constraints =
    [| Quad.affine [| -1.0 |] 1.0 (* 1 - x <= 0 *);
       Quad.affine [| 1.0 |] (-2.0) (* x - 2 <= 0 *) |]
  in
  match Barrier_reference.phase1 constraints [| 0.0 |] with
  | Barrier_reference.Strictly_feasible x ->
      check_bool "inside" true (x.(0) > 1.0 && x.(0) < 2.0)
  | Barrier_reference.Infeasible _ -> Alcotest.fail "expected feasible"

let test_phase1_detects_infeasible () =
  (* x <= 0 and x >= 1 simultaneously. *)
  let constraints =
    [| Quad.affine [| 1.0 |] 0.0; Quad.affine [| -1.0 |] 1.0 |]
  in
  match Barrier_reference.phase1 constraints [| 0.5 |] with
  | Barrier_reference.Strictly_feasible _ -> Alcotest.fail "expected infeasible"
  | Barrier_reference.Infeasible worst ->
      check_bool "worst >= 0" true (worst >= -1e-6)

let test_phase1_short_circuit () =
  (* Already strictly feasible: returns the same point. *)
  let constraints = [| Quad.affine [| 1.0 |] (-10.0) |] in
  match Barrier_reference.phase1 constraints [| 0.0 |] with
  | Barrier_reference.Strictly_feasible x ->
      check_float 1e-12 "same point" 0.0 x.(0)
  | Barrier_reference.Infeasible _ -> Alcotest.fail "expected feasible"

let test_solve_end_to_end () =
  (* minimize (x-5)^2 s.t. x <= 3, from an infeasible start: optimum 3. *)
  let obj = Quad.square_of_affine [| 1.0 |] (-5.0) in
  let constraints = [| Quad.affine [| 1.0 |] (-3.0) |] in
  let p = { Quad.objective = obj; constraints } in
  match Barrier_reference.two_phase ~start:[| 10.0 |] p with
  | Barrier_reference.Optimal s ->
      check_float 1e-4 "optimum" 3.0 s.Barrier_reference.x.(0);
      check_bool "kkt" true
        (Kkt.max_residual
           (Kkt.residuals p s.Barrier_reference.x s.Barrier_reference.dual)
        < 1e-3)
  | Barrier_reference.Unreachable _ -> Alcotest.fail "expected optimal"

let test_solve_reports_infeasible () =
  let obj = Quad.affine [| 1.0 |] 0.0 in
  let constraints =
    [| Quad.affine [| 1.0 |] 0.0; Quad.affine [| -1.0 |] 1.0 |]
  in
  match Barrier_reference.two_phase { Quad.objective = obj; constraints } with
  | Barrier_reference.Optimal _ -> Alcotest.fail "expected infeasible"
  | Barrier_reference.Unreachable _ -> ()

(* ------------------------------------------------------------------ *)
(* Conic *)

(* An LP as a {!Quad.problem}: minimize c'x s.t. q_i'x + r_i <= 0,
   each row an affine [Quad], packed by [of_problem] into the orthant
   rows s = h - Gx >= 0 with G's rows q_i and h_i = -r_i. *)
let lp_conic ~c rows =
  Conic_reference.of_problem
    {
      Quad.objective = Quad.affine c 0.0;
      constraints = Array.map (fun (q, r) -> Quad.affine q r) rows;
    }

(* minimize x0 + x1 s.t. 0 <= x <= 1: G = [-I; I], h = [0; 0; 1; 1]. *)
let box_lp_conic () =
  lp_conic ~c:[| 1.0; 1.0 |]
    [|
      ([| -1.0; 0.0 |], 0.0);
      ([| 0.0; -1.0 |], 0.0);
      ([| 1.0; 0.0 |], -1.0);
      ([| 0.0; 1.0 |], -1.0);
    |]

let test_conic_box_lp () =
  match Conic.solve (box_lp_conic ()) with
  | Conic.Optimal s ->
      check_float 1e-6 "value" 0.0 s.Conic.objective_value;
      check_bool "at corner" true (Vec.norm_inf s.Conic.x < 1e-6);
      check_bool "slack matches" true
        (Vec.approx_equal ~tol:1e-6 s.Conic.s [| 0.0; 0.0; 1.0; 1.0 |]);
      (* Both lower bounds are active: their duals carry the cost. *)
      check_float 1e-5 "dual of x0 >= 0" 1.0 s.Conic.z.(0);
      check_float 1e-5 "dual of x1 >= 0" 1.0 s.Conic.z.(1)
  | st -> Alcotest.failf "expected optimal, got %a" Conic.pp_status st

let test_conic_primal_infeasible_certificate () =
  (* x <= 0 and x >= 1 cannot hold together.  The certificate must be
     a separating hyperplane: z in K*, G'z ~ 0, h'z = -1, with
     G = [1; -1] and h = [0; -1]. *)
  let t = lp_conic ~c:[| 1.0 |] [| ([| 1.0 |], 0.0); ([| -1.0 |], 1.0) |] in
  match Conic.solve t with
  | Conic.Primal_infeasible { z } ->
      check_bool "z in dual cone" true (Vec.min z >= -1e-9);
      check_float 1e-6 "G'z ~ 0" 0.0 (Float.abs (z.(0) -. z.(1)));
      check_float 1e-6 "h'z = -1" (-1.0) (-.z.(1))
  | st -> Alcotest.failf "expected primal infeasible, got %a" Conic.pp_status st

let test_conic_dual_infeasible_certificate () =
  (* minimize -x s.t. x >= 0 is unbounded below.  The certificate is
     an improving ray: c'x = -1 with -Gx in K, G = [-1]. *)
  let t = lp_conic ~c:[| -1.0 |] [| ([| -1.0 |], 0.0) |] in
  match Conic.solve t with
  | Conic.Dual_infeasible { x } ->
      check_float 1e-6 "c'x = -1" (-1.0) (-.x.(0));
      check_bool "-Gx in cone" true (x.(0) >= 0.0)
  | st -> Alcotest.failf "expected dual infeasible, got %a" Conic.pp_status st

(* minimize x0 s.t. x0^2 <= x1, x1 <= 2 — a rank-one quadratic plus an
   affine row, exactly the shape [Conic_reference.of_problem] accepts.  Optimum
   x = (-sqrt 2, 2), value -sqrt 2. *)
let epigraph_problem () =
  let obj = Quad.affine [| 1.0; 0.0 |] 0.0 in
  let constraints =
    [|
      Quad.add
        (Quad.square_of_affine [| 1.0; 0.0 |] 0.0)
        (Quad.affine [| 0.0; -1.0 |] 0.0);
      Quad.affine [| 0.0; 1.0 |] (-2.0);
    |]
  in
  { Quad.objective = obj; constraints }

let test_conic_of_barrier_agreement () =
  let p = epigraph_problem () in
  let conic =
    match Conic.solve (Conic_reference.of_problem p) with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "conic: expected optimal, got %a" Conic.pp_status st
  in
  check_float 1e-6 "conic value" (-.sqrt 2.0) conic.Conic.objective_value;
  let b = Barrier_reference.solve p [| 0.0; 1.0 |] in
  check_bool "argmin agrees with barrier" true
    (Vec.approx_equal ~tol:1e-5 conic.Conic.x b.Barrier_reference.x)

let test_conic_constraint_duals () =
  let p = epigraph_problem () in
  let t = Conic_reference.of_problem p in
  let s =
    match Conic.solve t with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "expected optimal, got %a" Conic.pp_status st
  in
  let duals = Conic_reference.constraint_duals p s in
  check_int "one dual per constraint" 2 (Vec.dim duals);
  (* KKT stationarity: 1 + lambda0 * 2 x0 = 0 at x0 = -sqrt 2, and the
     x1 column gives -lambda0 + lambda1 = 0. *)
  check_float 1e-4 "epigraph multiplier" (1.0 /. (2.0 *. sqrt 2.0)) duals.(0);
  check_float 1e-4 "affine multiplier" duals.(0) duals.(1)

(* Re-targeting one orthant row's constant must equal packing the
   edited problem from scratch, and must leave the original instance
   alone: maximize x0 under x0 <= 1 (orthant row 0) and -x_i <= 1, then
   move the first bound to x0 <= 2. *)
let test_conic_with_constant () =
  let n = 3 in
  let objective = Quad.linear_coord n 0 (-1.0) in
  let others =
    Array.init n (fun i ->
        Quad.add_constant (Quad.linear_coord n i (-1.0)) (-1.0))
  in
  let bound c = Quad.add_constant (Quad.linear_coord n 0 1.0) c in
  let p = { Quad.objective; constraints = Array.append [| bound (-1.0) |] others } in
  let t = Conic_reference.of_problem p in
  let edited =
    Conic.with_constant t ~row:(Option.get (Conic_reference.orthant_row p 0)) 2.0
  in
  let fresh =
    Conic_reference.of_problem
      { Quad.objective; constraints = Array.append [| bound (-2.0) |] others }
  in
  let optimum inst =
    match Conic.solve inst with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "expected optimal, got %a" Conic.pp_status st
  in
  let e = optimum edited and f = optimum fresh in
  check_float 1e-6 "re-targeted optimum" (-2.0) e.Conic.objective_value;
  check_bool "as packing the edited problem" true
    (Vec.approx_equal ~tol:1e-9 e.Conic.x f.Conic.x);
  check_float 1e-6 "the original still has x0 <= 1" (-1.0)
    (optimum t).Conic.objective_value;
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  (* The epigraph problem packs one orthant row, then its cone block. *)
  check_bool "a cone row's constant is rejected" true
    (rejected (fun () ->
         Conic.with_constant
           (Conic_reference.of_problem (epigraph_problem ()))
           ~row:1 1.0))

let test_conic_warm_start_and_stats () =
  let p = epigraph_problem () in
  let t = Conic_reference.of_problem p in
  let stats = ref Conic.stats_zero in
  let cold =
    match Conic.solve ~stats_into:stats t with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "cold: expected optimal, got %a" Conic.pp_status st
  in
  let cold_iters = !stats.Conic.iterations in
  check_bool "counted iterations" true (cold_iters > 0);
  check_int "one factorization per iteration" cold_iters
    !stats.Conic.factorizations;
  check_int "optimal outcome counted" 1 !stats.Conic.optimal;
  (* Re-target the affine bound slightly and warm-start from the
     first instance's optimum. *)
  let t' = Conic.with_constant t ~row:0 2.1 in
  let warm =
    match Conic.solve ~stats_into:stats ~warm:cold.Conic.x t' with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "warm: expected optimal, got %a" Conic.pp_status st
  in
  check_float 1e-6 "re-targeted optimum" (-.sqrt 2.1)
    warm.Conic.objective_value;
  check_int "outcomes accumulate" 2 !stats.Conic.optimal

let test_conic_workspace_reuse () =
  let t = Conic_reference.of_problem (epigraph_problem ()) in
  let ws = Conic.make_workspace t in
  let solve_with inst =
    match Conic.solve ~ws inst with
    | Conic.Optimal s -> s.Conic.objective_value
    | st -> Alcotest.failf "expected optimal, got %a" Conic.pp_status st
  in
  check_float 1e-6 "first solve" (-.sqrt 2.0) (solve_with t);
  check_float 1e-6 "re-targeted reuse" (-.sqrt 3.0)
    (solve_with (Conic.with_constant t ~row:0 3.0));
  check_float 1e-6 "back to the first instance" (-.sqrt 2.0) (solve_with t);
  check_bool "shape mismatch rejected" true
    (try
       ignore (Conic.solve ~ws (box_lp_conic ()));
       false
     with Invalid_argument _ -> true)

(* The epigraph problem plus two more affine rows: x1 <= 3, never
   binding, and -x0 - 1 <= 0, which cuts the epigraph optimum off.
   Optimum x0 = -1, value -1. *)
let working_set_problem () =
  let p = epigraph_problem () in
  {
    p with
    Quad.constraints =
      Array.append p.Quad.constraints
        [| Quad.affine [| 0.0; 1.0 |] (-3.0); Quad.affine [| -1.0; 0.0 |] (-1.0) |];
  }

let test_conic_working_set () =
  let p = working_set_problem () in
  let t = Conic_reference.of_problem p in
  let ws = Conic.make_workspace t in
  let solve () =
    match Conic.solve ~ws t with
    | Conic.Optimal s -> s
    | st -> Alcotest.failf "expected optimal, got %a" Conic.pp_status st
  in
  (* Constraints 2 and 3 (orthant rows 1 and 2) become optional. *)
  Conic.restrict ws t ~first:1 ~last:3;
  let relaxed = solve () in
  check_float 1e-6 "the relaxation's optimum" (-.sqrt 2.0)
    relaxed.Conic.objective_value;
  let duals = Conic_reference.constraint_duals p relaxed in
  check_int "duals of the full shape" 4 (Vec.dim duals);
  check_float 0.0 "no dual off the set" 0.0 duals.(2);
  check_float 0.0 "no dual off the set" 0.0 duals.(3);
  check_float 1e-6 "true slack off the set" (1.0 -. sqrt 2.0)
    relaxed.Conic.s.(2);
  check_int "the violated row joins" 1
    (Conic.admit ws t relaxed.Conic.x ~above:0.0);
  check_int "once" 0 (Conic.admit ws t relaxed.Conic.x ~above:0.0);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Conic.admit ws t relaxed.Conic.x ~above:0.0));
  check_float 0.0 "the row-value pass allocates nothing" 0.0
    (Gc.minor_words () -. w0);
  let final = solve () in
  check_float 1e-6 "the full problem's optimum" (-1.0)
    final.Conic.objective_value;
  (match Conic.solve t with
  | Conic.Optimal s ->
      check_float 1e-6 "as the all-rows solve" s.Conic.objective_value
        final.Conic.objective_value
  | st -> Alcotest.failf "all rows: expected optimal, got %a" Conic.pp_status st);
  check_float 0.0 "the slack row stays out" 0.0
    (Conic_reference.constraint_duals p final).(2);
  (* A row whose value is NaN is not known to hold: it joins. *)
  Conic.restrict ws t ~first:1 ~last:3;
  check_int "NaN rows join" 2
    (Conic.admit ws t [| Float.nan; Float.nan |] ~above:0.0);
  Conic.restrict ws t ~first:1 ~last:3;
  check_int "a seed threshold admits rows within it" 1
    (Conic.admit ws t [| -0.95; 1.0 |] ~above:(-0.1));
  Conic.restrict ws t ~first:0 ~last:0;
  check_float 1e-6 "an empty range restores the full problem" (-1.0)
    (solve ()).Conic.objective_value;
  let rejected f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "a cone row cannot be optional" true
    (rejected (fun () -> Conic.restrict ws t ~first:1 ~last:4));
  check_bool "range out of bounds" true
    (rejected (fun () -> Conic.restrict ws t ~first:(-1) ~last:2));
  check_bool "point dimension" true
    (rejected (fun () -> Conic.admit ws t [| 0.0 |] ~above:0.0))

(* The conic loop's allocation, measured at run time: the alloc-free
   lint sees syntactic allocation sites only, not a float boxed across
   a call.  Workspace solves of fixed Niagara cells (all rows, stride
   4); the second solve of each cell is counted, after the first has
   sized the workspace.  The solution record (x, s, z, two boxed
   floats, the record and its constructor) is subtracted, and what is
   left, per-solve set-up included, is charged to the iterations.
   Measured 74-78 words an iteration on these cells (the float fields
   of the workspace record and the boxed results of Vec calls); ~1005
   while assemble_m boxed every factor entry through Mat.set, max_step
   allocated a closure and Vec.norm_inf folded with a boxed
   accumulator. *)
let conic_words_per_iteration_bound = 100.0

let test_conic_iteration_allocation () =
  let machine = Sim.Machine.niagara () in
  let spec = { Protemp.Spec.default with Protemp.Spec.constraint_stride = 4 } in
  List.iter
    (fun (tstart, ftarget) ->
      let built = Protemp.Model.build ~machine ~spec ~tstart ~ftarget in
      let t = Lazy.force built.Protemp.Model.conic in
      let ws =
        Conic.make_workspace
          ~kkt:(`Blocks (Protemp.Model.conic_blocks built.Protemp.Model.layout))
          t
      in
      ignore (Conic.solve ~ws t);
      let w0 = Gc.minor_words () in
      let status = Conic.solve ~ws t in
      let words = Gc.minor_words () -. w0 in
      match status with
      | Conic.Optimal s ->
          (* A float array above Max_young_wosize (256 words) is
             allocated in the major heap and never counted here. *)
          let block v =
            if Vec.dim v = 0 || Vec.dim v > 256 then 0 else Vec.dim v + 1
          in
          let record =
            block s.Conic.x + block s.Conic.s + block s.Conic.z
            + (2 * 2) + 7 + 2
          in
          let per_iteration =
            (words -. float_of_int record) /. float_of_int s.Conic.iterations
          in
          if per_iteration > conic_words_per_iteration_bound then
            Alcotest.failf
              "cell (%g C, %g Hz): %.1f words an iteration over %d iterations \
               (bound %.0f)"
              tstart ftarget per_iteration s.Conic.iterations
              conic_words_per_iteration_bound
      | st ->
          Alcotest.failf "cell (%g C, %g Hz): expected optimal, got %a" tstart
            ftarget Conic.pp_status st)
    [ (40.0, 6e8); (60.0, 4e8); (85.0, 2e8) ]

(* ------------------------------------------------------------------ *)
(* LPs through the reference barrier *)

let test_linprog_known () =
  (* minimize -x0 - 2 x1 s.t. x0 + x1 <= 1, x >= 0.
     Optimum at (0, 1), value -2. *)
  let a =
    Mat.of_rows [| [| 1.0; 1.0 |]; [| -1.0; 0.0 |]; [| 0.0; -1.0 |] |]
  in
  match
    Barrier_reference.linprog ~c:[| -1.0; -2.0 |] ~a ~b:[| 1.0; 0.0; 0.0 |]
  with
  | Barrier_reference.Optimal { Barrier_reference.x; objective_value; _ } ->
      check_float 1e-4 "value" (-2.0) objective_value;
      check_bool "vertex" true (Vec.approx_equal ~tol:1e-3 x [| 0.0; 1.0 |])
  | Barrier_reference.Unreachable _ -> Alcotest.fail "expected optimal"

let test_linprog_infeasible () =
  let a = Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |] in
  match Barrier_reference.linprog ~c:[| 1.0 |] ~a ~b:[| -1.0; -1.0 |] with
  | Barrier_reference.Optimal _ -> Alcotest.fail "expected infeasible"
  | Barrier_reference.Unreachable _ -> ()

(* ------------------------------------------------------------------ *)
(* The simplex reference *)

let test_simplex_known () =
  (* max x0 + 2 x1 s.t. x0 + x1 <= 4, x1 <= 2, x >= 0: optimum (2,2),
     value -6 for the minimization form. *)
  let a = Mat.of_rows [| [| 1.0; 1.0 |]; [| 0.0; 1.0 |] |] in
  match Simplex_reference.solve ~c:[| -1.0; -2.0 |] ~a ~b:[| 4.0; 2.0 |] with
  | Simplex_reference.Optimal { x; objective_value } ->
      check_float 1e-9 "value" (-6.0) objective_value;
      check_bool "vertex" true (Vec.approx_equal ~tol:1e-9 x [| 2.0; 2.0 |])
  | Simplex_reference.Unbounded | Simplex_reference.Infeasible ->
      Alcotest.fail "expected optimal"

let test_simplex_two_phase () =
  (* min x s.t. x >= 1 (written -x <= -1), x >= 0: needs phase 1. *)
  let a = Mat.of_rows [| [| -1.0 |] |] in
  match Simplex_reference.solve ~c:[| 1.0 |] ~a ~b:[| -1.0 |] with
  | Simplex_reference.Optimal { x; objective_value } ->
      check_float 1e-9 "value" 1.0 objective_value;
      check_float 1e-9 "x" 1.0 x.(0)
  | Simplex_reference.Unbounded | Simplex_reference.Infeasible ->
      Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  (* x <= 1 and x >= 2 simultaneously. *)
  let a = Mat.of_rows [| [| 1.0 |]; [| -1.0 |] |] in
  check_bool "infeasible" true
    (Simplex_reference.solve ~c:[| 0.0 |] ~a ~b:[| 1.0; -2.0 |]
    = Simplex_reference.Infeasible)

let test_simplex_unbounded () =
  (* min -x0 with only x0 - x1 <= 1: x0 can grow with x1. *)
  let a = Mat.of_rows [| [| 1.0; -1.0 |] |] in
  check_bool "unbounded" true
    (Simplex_reference.solve ~c:[| -1.0; 0.0 |] ~a ~b:[| 1.0 |]
    = Simplex_reference.Unbounded)

let test_simplex_degenerate () =
  (* Degenerate vertex (redundant constraints through the optimum):
     Bland's rule must terminate. *)
  let a =
    Mat.of_rows
      [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |]
  in
  match
    Simplex_reference.solve ~c:[| -1.0; -1.0 |] ~a ~b:[| 1.0; 1.0; 1.0; 1.0 |]
  with
  | Simplex_reference.Optimal { objective_value; _ } ->
      check_float 1e-9 "value" (-1.0) objective_value
  | Simplex_reference.Unbounded | Simplex_reference.Infeasible ->
      Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Random convex QP with box constraints: the barrier optimum must
   satisfy the KKT conditions and beat random feasible points. *)
let random_box_qp st n =
  let p = random_spd st n in
  let q = random_vec st n in
  let obj = Quad.quadratic p q 0.0 in
  let constraints =
    Array.init (2 * n) (fun k ->
        let i = k / 2 in
        if k mod 2 = 0 then Quad.linear_coord n i (-1.0) |> fun f ->
          Quad.add_constant f (-1.0) (* -x_i - 1 <= 0 *)
        else Quad.add_constant (Quad.linear_coord n i 1.0) (-1.0)
        (* x_i - 1 <= 0 *))
  in
  { Quad.objective = obj; constraints }

let prop_barrier_kkt =
  QCheck2.Test.make ~name:"barrier: KKT residuals small on random QPs"
    ~count:60 qp_gen (fun (n, seed) ->
      let st = mk_rand seed in
      let p = random_box_qp st n in
      let r = Barrier_reference.solve p (Vec.zeros n) in
      let kkt = Kkt.residuals p r.Barrier_reference.x r.Barrier_reference.dual in
      Kkt.max_residual kkt < 1e-4)

let prop_barrier_beats_random_feasible =
  QCheck2.Test.make
    ~name:"barrier: optimum value <= random feasible points" ~count:60 qp_gen
    (fun (n, seed) ->
      let st = mk_rand seed in
      let p = random_box_qp st n in
      let r = Barrier_reference.solve p (Vec.zeros n) in
      let ok = ref true in
      for _ = 1 to 20 do
        let y = Vec.init n (fun _ -> Random.State.float st 1.8 -. 0.9) in
        if
          Quad.eval p.Quad.objective y
          < r.Barrier_reference.objective_value -. 1e-5
        then ok := false
      done;
      !ok)

let prop_phase1_consistent =
  (* Intervals [a, b]: phase 1 must find a point iff a < b. *)
  QCheck2.Test.make ~name:"phase1: interval feasibility" ~count:100
    QCheck2.Gen.(pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (a, b) ->
      QCheck2.assume (Float.abs (a -. b) > 1e-3);
      let constraints =
        [| Quad.add_constant (Quad.linear_coord 1 0 (-1.0)) a
           (* a - x <= 0 *);
           Quad.add_constant (Quad.linear_coord 1 0 1.0) (-.b)
           (* x - b <= 0 *) |]
      in
      match Barrier_reference.phase1 constraints [| 0.0 |] with
      | Barrier_reference.Strictly_feasible x -> a < b && x.(0) > a && x.(0) < b
      | Barrier_reference.Infeasible _ -> a > b)

(* A random feasible, bounded LP in both forms: for the simplex
   ([A x <= b] with [x >= 0] implicit, plus the box x <= 3) and as
   inequality rows with [x >= 0] explicit, for the interior-point
   solvers. *)
let random_lp st n =
  let m_rows = 1 + Random.State.int st 5 in
  let a0 = Mat.init m_rows n (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let b0 = Vec.init m_rows (fun _ -> 0.5 +. Random.State.float st 1.5) in
  let c = random_vec st n in
  let box = Mat.init n n (fun i j -> if i = j then 1.0 else 0.0) in
  let a_simplex =
    Mat.init (m_rows + n) n (fun i j ->
        if i < m_rows then Mat.get a0 i j else Mat.get box (i - m_rows) j)
  in
  let b_simplex = Vec.concat b0 (Vec.create n 3.0) in
  let a_rows =
    Mat.init (m_rows + (2 * n)) n (fun i j ->
        if i < m_rows then Mat.get a0 i j
        else if i < m_rows + n then Mat.get box (i - m_rows) j
        else if i - m_rows - n = j then -1.0
        else 0.0)
  in
  (c, (a_simplex, b_simplex), (a_rows, Vec.concat b_simplex (Vec.zeros n)))

(* The strongest solver evidence available: algorithmically independent
   LP solvers (tableau simplex against an interior-point method) agree
   on random feasible bounded instances. *)
let prop_simplex_matches_barrier =
  QCheck2.Test.make ~name:"simplex and barrier agree on random LPs"
    ~count:40 qp_gen (fun (n, seed) ->
      let c, (a_s, b_s), (a, b) = random_lp (mk_rand seed) n in
      match
        ( Simplex_reference.solve ~c ~a:a_s ~b:b_s,
          Barrier_reference.linprog ~c ~a ~b )
      with
      | ( Simplex_reference.Optimal { objective_value = sv; _ },
          Barrier_reference.Optimal
            { Barrier_reference.objective_value = lv; _ } ) ->
          Float.abs (sv -. lv) < 1e-3 *. Float.max 1.0 (Float.abs sv)
      | Simplex_reference.Infeasible, Barrier_reference.Unreachable _ -> true
      | _, _ -> false)

(* The same LPs through the conic solver, each row of [A x <= b] an
   affine constraint.  The objective must match to 10x the conic's
   relative gap tolerance. *)
let prop_simplex_matches_conic =
  QCheck2.Test.make ~name:"simplex and conic agree on random LPs"
    ~count:40 qp_gen (fun (n, seed) ->
      let c, (a_s, b_s), (a, b) = random_lp (mk_rand seed) n in
      let t =
        lp_conic ~c (Array.init (Mat.rows a) (fun i -> (Mat.row a i, -.b.(i))))
      in
      let tol = 10.0 *. Conic.gap_rel_tol in
      match (Simplex_reference.solve ~c ~a:a_s ~b:b_s, Conic.solve t) with
      | Simplex_reference.Optimal { objective_value = sv; _ }, Conic.Optimal s ->
          Float.abs (sv -. s.Conic.objective_value)
          < tol *. Float.max 1.0 (Float.abs sv)
      | Simplex_reference.Infeasible, Conic.Primal_infeasible _ -> true
      | _, _ -> false)

(* A least-squares-with-box problem through the two-phase driver,
   checked against the projection. *)
let test_solve_box_least_squares () =
  let n = 3 in
  (* minimize sum_i (x_i - 2)^2 s.t. 0 <= x_i <= 1: optimum (1,1,1). *)
  let terms =
    List.init n (fun i ->
        let e = Vec.zeros n in
        e.(i) <- 1.0;
        Quad.square_of_affine e (-2.0))
  in
  let objective = List.fold_left Quad.add (List.hd terms) (List.tl terms) in
  let constraints =
    Array.of_list
      (List.concat_map (fun i -> box_rows n i ~lo:0.0 ~hi:1.0)
         (List.init n Fun.id))
  in
  match
    Barrier_reference.two_phase ~start:(Vec.create n 0.5)
      { Quad.objective; constraints }
  with
  | Barrier_reference.Optimal s ->
      check_bool "projection" true
        (Vec.approx_equal ~tol:1e-4 s.Barrier_reference.x (Vec.create n 1.0))
  | Barrier_reference.Unreachable _ -> Alcotest.fail "expected optimal"

(* [Conic.admit] against a per-row reference on random packed
   instances: orthant rows with stripes of 1-12 entries (eight, the
   unrolled length, in a third of them), coefficients of many
   magnitudes (so a reassociated sum rounds differently) and some rows
   with a NaN coefficient or constant.  The reference value of a row is
   the left-to-right sum from 0.0 of its products, minus [h_i].  Each
   row is checked alone at [above] = its reference value and the floats
   either side of it, so a kernel whose value is off by one ulp flips a
   decision; then passes over random windows at a random [above] must
   admit the same rows, in the same count — the decision of row [k] is
   read off the counts of the windows ending before and after it.  A
   pass allocates nothing. *)
let prop_admit_matches_rows =
  QCheck2.Test.make ~name:"conic: admit decides each row as the one-row sum"
    ~count:200 QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let st = mk_rand seed in
      let value () =
        (Random.State.float st 2.0 -. 1.0)
        *. Float.pow 10.0 (float_of_int (Random.State.int st 7 - 3))
      in
      let n = 12 + Random.State.int st 9 in
      let m = 1 + Random.State.int st 40 in
      let g =
        Array.init m (fun _ ->
            let len =
              if Random.State.int st 3 = 0 then 8 else 1 + Random.State.int st 12
            in
            let lo = Random.State.int st (n - len + 1) in
            let row = Array.init len (fun _ -> value ()) in
            if Random.State.int st 10 = 0 then
              row.(Random.State.int st len) <- Float.nan;
            (lo, row))
      in
      let h =
        Vec.init m (fun _ ->
            if Random.State.int st 20 = 0 then Float.nan else value ())
      in
      let x = Vec.init n (fun _ -> value ()) in
      let t = Conic.make ~c:(Vec.zeros n) ~n_orthant:m ~g ~h in
      let ws = Conic.make_workspace t in
      let reference =
        Array.mapi
          (fun i (lo, row) ->
            let acc = ref 0.0 in
            Array.iteri (fun k gk -> acc := !acc +. (gk *. x.(lo + k))) row;
            !acc -. h.(i))
          g
      in
      let joins i above = not (reference.(i) <= above) in
      let admitted first last above =
        Conic.restrict ws t ~first ~last;
        Conic.admit ws t x ~above
      in
      let row_ok i =
        let v = reference.(i) in
        let aboves =
          if Float.is_nan v then [ 0.0; value () ]
          else [ Float.pred v; v; Float.succ v; value () ]
        in
        List.for_all
          (fun above ->
            admitted i (i + 1) above = (if joins i above then 1 else 0))
          aboves
      in
      let window_ok () =
        let first = Random.State.int st m in
        let last = first + 1 + Random.State.int st (m - first) in
        let above =
          let v = reference.(first + Random.State.int st (last - first)) in
          if Float.is_nan v then value () else v
        in
        let expected = ref 0 and same_rows = ref true and before = ref 0 in
        for k = first to last - 1 do
          let through_k = admitted first (k + 1) above in
          let joined = through_k - !before in
          if joined <> (if joins k above then 1 else 0) then
            same_rows := false;
          if joins k above then incr expected;
          before := through_k
        done;
        !same_rows && admitted first last above = !expected
      in
      let allocation_free () =
        Conic.restrict ws t ~first:0 ~last:m;
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Conic.admit ws t x ~above:0.0));
        Gc.minor_words () -. w0 = 0.0
      in
      List.for_all row_ok (List.init m Fun.id)
      && List.for_all (fun _ -> window_ok ()) [ 1; 2; 3 ]
      && allocation_free ())

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_admit_matches_rows;
      prop_barrier_kkt; prop_barrier_beats_random_feasible;
      prop_phase1_consistent; prop_simplex_matches_barrier;
      prop_simplex_matches_conic ]

let () =
  Alcotest.run "convex"
    [
      ( "quad",
        [
          Alcotest.test_case "affine eval/grad" `Quick test_quad_affine_eval;
          Alcotest.test_case "quadratic eval/grad" `Quick
            test_quad_quadratic_eval;
          Alcotest.test_case "square of affine" `Quick
            test_quad_square_of_affine;
          Alcotest.test_case "algebra" `Quick test_quad_algebra;
          Alcotest.test_case "extend" `Quick test_quad_extend;
          Alcotest.test_case "gradient vs finite differences" `Quick
            test_quad_grad_finite_difference;
        ] );
      ( "newton",
        [
          Alcotest.test_case "quadratic bowl" `Quick
            test_newton_quadratic_one_step;
          Alcotest.test_case "respects domain" `Quick
            test_newton_respects_domain;
          Alcotest.test_case "rejects bad start" `Quick
            test_newton_rejects_bad_start;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "box LP" `Quick test_barrier_box_lp;
          Alcotest.test_case "projection QP" `Quick test_barrier_projection;
          Alcotest.test_case "inactive constraint" `Quick
            test_barrier_inactive_constraint;
          Alcotest.test_case "quadratic constraint" `Quick
            test_barrier_quadratic_constraint;
          Alcotest.test_case "rejects infeasible start" `Quick
            test_barrier_rejects_infeasible_start;
          Alcotest.test_case "unconstrained" `Quick test_barrier_unconstrained;
          Alcotest.test_case "work counters" `Quick test_barrier_stats;
        ] );
      ( "phase1",
        [
          Alcotest.test_case "finds point" `Quick test_phase1_finds_point;
          Alcotest.test_case "detects infeasible" `Quick
            test_phase1_detects_infeasible;
          Alcotest.test_case "short circuit" `Quick test_phase1_short_circuit;
        ] );
      ( "solve",
        [
          Alcotest.test_case "end to end" `Quick test_solve_end_to_end;
          Alcotest.test_case "box least squares" `Quick
            test_solve_box_least_squares;
          Alcotest.test_case "reports infeasible" `Quick
            test_solve_reports_infeasible;
        ] );
      ( "conic",
        [
          Alcotest.test_case "box LP" `Quick test_conic_box_lp;
          Alcotest.test_case "primal-infeasible certificate" `Quick
            test_conic_primal_infeasible_certificate;
          Alcotest.test_case "dual-infeasible certificate" `Quick
            test_conic_dual_infeasible_certificate;
          Alcotest.test_case "agrees with barrier" `Quick
            test_conic_of_barrier_agreement;
          Alcotest.test_case "constraint duals" `Quick
            test_conic_constraint_duals;
          Alcotest.test_case "with_constant" `Quick test_conic_with_constant;
          Alcotest.test_case "warm start and stats" `Quick
            test_conic_warm_start_and_stats;
          Alcotest.test_case "workspace reuse" `Quick
            test_conic_workspace_reuse;
          Alcotest.test_case "working set" `Quick test_conic_working_set;
          Alcotest.test_case "iteration allocation" `Quick
            test_conic_iteration_allocation;
        ] );
      ( "linprog",
        [
          Alcotest.test_case "known LP" `Quick test_linprog_known;
          Alcotest.test_case "infeasible LP" `Quick test_linprog_infeasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "known LP" `Quick test_simplex_known;
          Alcotest.test_case "two-phase start" `Quick test_simplex_two_phase;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate (Bland)" `Quick
            test_simplex_degenerate;
        ] );
      ("properties", props);
    ]
