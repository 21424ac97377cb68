(* A dense log-barrier interior-point method: the reference the conic
   solver is checked against.

   The library solves every Eq. 3 instance and every frontier with the
   primal-dual conic method of [Convex.Conic].  The tests keep this
   algorithmically independent solver to compare it with: path
   following on [t f0(x) - sum_j log(-f_j(x))], each centering step by
   damped Newton, the barrier's gradient and Hessian formed by walking
   the constraints as [Quad.t] values (Boyd & Vandenberghe, ch. 9 and
   11; the algorithm class CVX applied to the paper's models).  It
   needs a strictly feasible start.  Two phase-I methods find one: the
   generic auxiliary problem ([phase1]), and for the thermal models a
   structural one ([solve_model]): the start hint, then a climb along
   the frontier problem until the throughput floor is cleared.

   Nothing here is tuned for speed; it is the readable statement of
   the method.  Its own checks are test_convex's newton, barrier,
   phase1, solve and linprog cases. *)

open Linalg

(* ------------------------------------------------------------------ *)
(* Kernels of the barrier's oracle: the gradient of a [Quad.t] written
   into a buffer, its Hessian and rank-one terms accumulated on the
   upper triangle only, the mirror that completes the triangle, and
   the embedding of a function into more variables (the phase-I
   slack). *)

let quad_grad_into f x ~dst = Vec.blit ~src:(Quad.grad f x) ~dst

(* [dst := dst + c P] on the upper triangle; a no-op for an affine
   [f]. *)
let add_scaled_hess_upper_into f c ~dst =
  if not (Quad.is_affine f) then begin
    let p = Quad.hess f and n = Quad.dim f in
    if Mat.rows dst <> n || Mat.cols dst <> n then
      invalid_arg "add_scaled_hess_upper_into: bad destination";
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        Mat.set dst i j (Mat.get dst i j +. (c *. Mat.get p i j))
      done
    done
  end

(* [a := a + c x x'] on the upper triangle (diagonal included). *)
let add_outer_upper_into a c x =
  let n = Vec.dim x in
  if Mat.rows a <> n || Mat.cols a <> n then
    invalid_arg "add_outer_upper_into: dimension mismatch";
  for i = 0 to n - 1 do
    let cxi = c *. x.(i) in
    for j = i to n - 1 do
      Mat.set a i j (Mat.get a i j +. (cxi *. x.(j)))
    done
  done

(* Copy the strict upper triangle onto the lower one. *)
let mirror_upper a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "mirror_upper: not square";
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      Mat.set a i j (Mat.get a j i)
    done
  done

(* [f] on [R^n'] (with [n' >= dim f]): the new trailing coordinates do
   not appear in it, and an affine [f] stays affine. *)
let extend_quad f n' =
  let n = Quad.dim f in
  if n' < n then invalid_arg "extend_quad: cannot shrink";
  let lin = Quad.linear_part f in
  let q = Vec.init n' (fun i -> if i < n then lin.(i) else 0.0) in
  if Quad.is_affine f then Quad.affine q (Quad.constant_part f)
  else
    let p = Quad.hess f in
    let inside i j = i < n && j < n in
    Quad.quadratic
      (Mat.init n' n' (fun i j -> if inside i j then Mat.get p i j else 0.0))
      q (Quad.constant_part f)

(* ------------------------------------------------------------------ *)
(* Damped Newton *)

type oracle = {
  value : Vec.t -> float option;  (** [None] outside the domain. *)
  grad_hess_into : Vec.t -> g:Vec.t -> h:Mat.t -> unit;
}

type outcome = Converged | Iteration_limit | Line_search_failed

type newton = {
  x : Vec.t;
  iterations : int;
  factorizations : int;  (** Cholesky attempts, jitter retries included. *)
  outcome : outcome;
}

(* Minimize a smooth convex function from a point of its domain, until
   the Newton decrement [lambda^2 / 2] is at most [tol].  Inside the
   quadratic-convergence region ([lambda^2 / 2 < 1/4]) the full step
   is taken without the Armijo test, which a barrier with a huge [t]
   can fail on rounding alone; otherwise the step halves until it is
   in the domain and decreases the value by a quarter of the linear
   prediction. *)
let minimize ?(tol = 1e-10) ?(max_iter = 100) oracle x0 =
  let n = Vec.dim x0 in
  let fx =
    match oracle.value x0 with
    | Some v -> ref v
    | None -> invalid_arg "Barrier_reference.minimize: start outside domain"
  in
  let x = Vec.copy x0 in
  let g = Vec.zeros n and h = Mat.zeros n n in
  let d = Vec.zeros n and cand = Vec.zeros n in
  let fact = Chol.preallocate n in
  let factorizations = ref 0 in
  let finish k outcome =
    { x; iterations = k; factorizations = !factorizations; outcome }
  in
  let rec iterate k =
    if k >= max_iter then finish k Iteration_limit
    else begin
      oracle.grad_hess_into x ~g ~h;
      let _jitter, tries = Chol.factorize_jittered_into fact h in
      factorizations := !factorizations + tries;
      Chol.solve_factorized_into fact g ~dst:d;
      Vec.scale_into ~dst:d (-1.0);
      let decrement = -0.5 *. Vec.dot g d in
      if decrement <= tol then finish k Converged
      else
        let gd = Vec.dot g d in
        let rec search step tries =
          if tries > 60 then None
          else begin
            Vec.blit ~src:x ~dst:cand;
            Vec.axpy_into ~dst:cand step d;
            match oracle.value cand with
            | Some v
              when (tries = 0 && decrement < 0.25)
                   || v <= !fx +. (0.25 *. step *. gd) ->
                Some v
            | Some _ | None -> search (step *. 0.5) (tries + 1)
          end
        in
        match search 1.0 0 with
        | None -> finish k Line_search_failed
        | Some v ->
            Vec.blit ~src:cand ~dst:x;
            fx := v;
            iterate (k + 1)
    end
  in
  iterate 0

(* ------------------------------------------------------------------ *)
(* The barrier method *)

type stats = {
  centering_steps : int;
  newton_iterations : int;
  factorizations : int;
}

type result = {
  x : Vec.t;
  objective_value : float;
  dual : Vec.t;  (** [lambda_j = 1 / (t * -f_j(x))]. *)
  gap : float;  (** The guaranteed duality-gap bound [m / t]. *)
  stats : stats;
}

let is_strictly_feasible (p : Quad.problem) x =
  Array.for_all (fun c -> Quad.eval c x < 0.0) p.Quad.constraints

(* [t f0 - sum log(-f_j)], with
     grad = t grad_f0 + sum grad_f_j / (-f_j)
     hess = t P0 + sum [grad_f_j grad_f_j' / f_j^2 + P_j / (-f_j)]. *)
let centering (p : Quad.problem) t =
  let gj = Vec.zeros (Quad.dim p.Quad.objective) in
  {
    value =
      (fun x ->
        if not (is_strictly_feasible p x) then None
        else
          Some
            (Array.fold_left
               (fun acc c -> acc -. log (-.Quad.eval c x))
               (t *. Quad.eval p.Quad.objective x)
               p.Quad.constraints));
    grad_hess_into =
      (fun x ~g ~h ->
        quad_grad_into p.Quad.objective x ~dst:g;
        Vec.scale_into ~dst:g t;
        Mat.fill h 0.0;
        add_scaled_hess_upper_into p.Quad.objective t ~dst:h;
        Array.iter
          (fun c ->
            let inv = -1.0 /. Quad.eval c x in
            quad_grad_into c x ~dst:gj;
            Vec.axpy_into ~dst:g inv gj;
            add_outer_upper_into h (inv *. inv) gj;
            add_scaled_hess_upper_into c inv ~dst:h)
          p.Quad.constraints;
        mirror_upper h);
  }

(* Short steps (t doubles per centering): on thousands of near-parallel
   thermal rows along a curved wall, long steps realize their
   pessimistic Newton bound per centering.  [stop_early] is checked
   after each centering. *)
let solve ?(gap_tol = 1e-7) ?(t0 = 1.0) ?stop_early (p : Quad.problem) x0 =
  if not (is_strictly_feasible p x0) then
    invalid_arg "Barrier_reference.solve: start not strictly feasible";
  let m = float_of_int (Array.length p.Quad.constraints) in
  let newton = ref 0 and factorizations = ref 0 in
  let rec outer t x k =
    let r = minimize ~tol:1e-9 ~max_iter:500 (centering p t) x in
    newton := !newton + r.iterations;
    factorizations := !factorizations + r.factorizations;
    let stop = match stop_early with Some f -> f r.x | None -> false in
    if stop || m /. t <= gap_tol || k >= 120 then
      {
        x = r.x;
        objective_value = Quad.eval p.Quad.objective r.x;
        dual =
          Array.map
            (fun c -> 1.0 /. (t *. -.Quad.eval c r.x))
            p.Quad.constraints;
        gap = m /. t;
        stats =
          {
            centering_steps = k;
            newton_iterations = !newton;
            factorizations = !factorizations;
          };
      }
    else outer (2.0 *. t) r.x (k + 1)
  in
  outer t0 (Vec.copy x0) 1

(* ------------------------------------------------------------------ *)
(* Generic phase I and the two-phase driver *)

type verdict = Strictly_feasible of Vec.t | Infeasible of float

let worst_row constraints x =
  Array.fold_left (fun acc c -> Float.max acc (Quad.eval c x)) neg_infinity
    constraints

(* minimize s subject to f_j(x) <= s and s >= -1 over (x, s), from
   [s0 = max_j f_j(x0) + 1], stopping once s < -margin.  A proximal
   term of 1e-6 ||x - x0||^2 keeps the centering bounded in x, and t0
   starts at m / (s0 + 1) so the first center stays near s0. *)
let phase1 ?(gap_tol = 1e-7) ?(margin = 1e-8) constraints x0 =
  if Array.for_all (fun c -> Quad.eval c x0 < -.margin) constraints then
    Strictly_feasible (Vec.copy x0)
  else begin
    let n = Vec.dim x0 in
    let n' = n + 1 in
    let minus_s = Quad.linear_coord n' n (-1.0) in
    let eps = 1e-6 in
    let proximal =
      Quad.quadratic
        (Mat.init n' n' (fun i j -> if i = j && i < n then 2.0 *. eps else 0.0))
        (Vec.init n' (fun i -> if i < n then -2.0 *. eps *. x0.(i) else 0.0))
        (eps *. Vec.dot x0 x0)
    in
    let p =
      {
        Quad.objective = Quad.add (Quad.linear_coord n' n 1.0) proximal;
        constraints =
          Array.append
            (Array.map
               (fun c -> Quad.add (extend_quad c n') minus_s)
               constraints)
            [| Quad.add_constant minus_s (-1.0) |];
      }
    in
    let s0 = worst_row constraints x0 +. 1.0 in
    let t0 =
      Float.max 1.0
        (float_of_int (Array.length p.Quad.constraints) /. (s0 +. 1.0))
    in
    let r =
      solve ~gap_tol ~t0 ~stop_early:(fun y -> y.(n) < -.margin) p
        (Vec.concat x0 [| s0 |])
    in
    let x = Vec.slice r.x 0 n in
    let worst = worst_row constraints x in
    if worst < 0.0 then Strictly_feasible x else Infeasible worst
  end

type status = Optimal of result | Unreachable of float

(* Phase I (to a loose gap: only its sign matters) from [start], or the
   origin, unless that is already strictly feasible; then the barrier
   method. *)
let two_phase ?start (p : Quad.problem) =
  let x0 =
    match start with
    | Some x -> Vec.copy x
    | None -> Vec.zeros (Quad.dim p.Quad.objective)
  in
  match
    if is_strictly_feasible p x0 then Strictly_feasible x0
    else phase1 ~gap_tol:1e-3 p.Quad.constraints x0
  with
  | Strictly_feasible x -> Optimal (solve p x)
  | Infeasible worst -> Unreachable worst

(* minimize c'x subject to A x <= b. *)
let linprog ~c ~a ~b =
  two_phase
    {
      Quad.objective = Quad.affine c 0.0;
      constraints =
        Array.init (Mat.rows a) (fun i -> Quad.affine (Mat.row a i) (-.b.(i)));
    }

(* ------------------------------------------------------------------ *)
(* The thermal models: structural phase I *)

(* The gradient bounds (u, l) of a start point: the spread u - l = 1.49
   keeps every gradient row slack, but not a hard cap below it (0.2 at
   20 C and tmax = 100 C); no start is found under such a cap. *)
let with_gradient_bounds (layout : Protemp.Model.layout) x =
  (match layout.Protemp.Model.bounds_offset with
  | Some off ->
      x.(off) <- 1.5;
      x.(off + 1) <- 0.01
  | None -> ());
  x

(* Every core at the demanded frequency, a little above the power law:
   strictly feasible for the power-law, box and floor rows, so for the
   whole cell when it is thermally easy. *)
let start_hint (built : Protemp.Model.built) =
  let layout = built.Protemp.Model.layout in
  let machine = built.Protemp.Model.machine in
  let x = Vec.zeros layout.Protemp.Model.dim in
  for j = 0 to layout.Protemp.Model.n_f - 1 do
    let fm =
      match built.Protemp.Model.spec.Protemp.Spec.variant with
      | Protemp.Spec.Variable -> machine.Sim.Machine.core_fmax.(j)
      | Protemp.Spec.Uniform -> machine.Sim.Machine.fmax
    in
    let fhat =
      Float.min 1.0015 ((built.Protemp.Model.ftarget /. fm) +. 0.001)
    in
    x.(layout.Protemp.Model.f_offset + j) <- fhat;
    x.(layout.Protemp.Model.p_offset + j) <-
      Float.min 1.0045 ((fhat *. fhat) +. 0.001)
  done;
  with_gradient_bounds layout x

(* Near-zero frequencies: strictly feasible for the frontier problem
   whenever the start temperature is inside the envelope at all. *)
let trivial_start (built : Protemp.Model.built) =
  let layout = built.Protemp.Model.layout in
  let x = Vec.zeros layout.Protemp.Model.dim in
  for j = 0 to layout.Protemp.Model.n_f - 1 do
    x.(layout.Protemp.Model.f_offset + j) <- 1e-3;
    x.(layout.Protemp.Model.p_offset + j) <- 1e-3
  done;
  with_gradient_bounds layout x

(* The throughput floor is the row after the power-law and box rows:
   [c'x + F <= 0], with [-c'x] the total frequency in units of the
   chip's fmax. *)
let floor_index (built : Protemp.Model.built) =
  Protemp.Model.floor_index built.Protemp.Model.layout

(* The floor-free companion of a cell: maximize the total frequency
   under the same envelope. *)
let frontier_problem (built : Protemp.Model.built) =
  let rows = (Model_reference.problem ~filter:true built).Quad.constraints in
  let k = floor_index built in
  {
    Quad.objective = Quad.affine (Quad.linear_part rows.(k)) 0.0;
    constraints =
      Array.append (Array.sub rows 0 k)
        (Array.sub rows (k + 1) (Array.length rows - k - 1));
  }

(* Solve a [Protemp.Model.build] cell: from the start hint when it is
   strictly feasible, else from a frontier iterate that strictly clears
   the floor, found by climbing the frontier problem from the trivial
   start.  [None] when neither exists: the cell is infeasible, or
   feasible only on its boundary. *)
let solve_model (built : Protemp.Model.built) =
  let p = Model_reference.problem ~filter:true built in
  let floor = p.Quad.constraints.(floor_index built) in
  let hint = start_hint built in
  let start =
    if is_strictly_feasible p hint then Some hint
    else
      let fp = frontier_problem built in
      let triv = trivial_start built in
      if not (is_strictly_feasible fp triv) then None
      else
        let clears x = Quad.eval floor x < -1e-7 in
        let r = solve ~stop_early:clears fp triv in
        if Quad.eval floor r.x < 0.0 then Some r.x else None
  in
  Option.map (solve p) start

(* A frontier instance ([Protemp.Model.build_frontier]) from the
   trivial start. *)
let solve_frontier (built : Protemp.Model.built) =
  let p = Model_reference.frontier ~filter:true built in
  let triv = trivial_start built in
  if is_strictly_feasible p triv then Some (solve p triv) else None

(* Per-core frequencies in Hz of a model point, clamped to the box as
   [Protemp.Model] reports them. *)
let frequencies (built : Protemp.Model.built) x =
  let layout = built.Protemp.Model.layout in
  let machine = built.Protemp.Model.machine in
  Vec.init layout.Protemp.Model.n_cores (fun j ->
      let v =
        match built.Protemp.Model.spec.Protemp.Spec.variant with
        | Protemp.Spec.Variable -> j
        | Protemp.Spec.Uniform -> 0
      in
      machine.Sim.Machine.core_fmax.(j)
      *. Float.min 1.0 (Float.max 0.0 x.(layout.Protemp.Model.f_offset + v)))
