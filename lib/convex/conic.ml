open Linalg

(* Internal form: the orthant rows come first, then the second-order
   blocks, three rows each.  A caller writes a rotated-quadratic block
   [(u, v, w)], [2 u v >= w^2], already mapped onto the standard
   second-order cone by the self-inverse orthogonal rotation

     T = [ 1/r2  1/r2  0 ]
         [ 1/r2 -1/r2  0 ]          r2 = sqrt 2
         [ 0     0     1 ]

   so the solver only ever scales orthant coordinates and standard
   SOC_3 blocks.  T is symmetric and orthogonal, so slacks and duals
   transform identically and inner products are preserved; solutions
   are rotated back to [(u, v, w)] on exit.

   G is stored as truncated sparse rows: row i keeps only the columns
   [glo.(i), glo.(i) + len_i).  The thermal models' rows are tiny
   contiguous stripes of a wide matrix (box rows touch one column,
   thermal rows only the power block), so every G kernel — matvec,
   transposed matvec, and the normal-equations syrk — runs on the
   stripe instead of the dense row.  This is where the per-iteration
   budget is won: the dense syrk alone costs more than the whole
   per-iteration target. *)

let inv_sqrt2 = 1.0 /. sqrt 2.0

(* The caller's rows (those of [solution.s] and [solution.z]) are in
   the same order; they differ from the internal ones only by the
   rotation T, so SOC block [k] sits at rows [mo + 3k] on both sides. *)
type t = {
  n : int;  (* primal dimension *)
  mo : int;  (* orthant rows *)
  nsoc : int;  (* second-order blocks (3 rows each) *)
  c : Vec.t;
  gdata : float array;  (* truncated rows, packed contiguously *)
  goff : int array;  (* q + 1 row offsets into gdata *)
  glo : int array;  (* first stored column of each row *)
  hi : Vec.t;  (* q, internal row order *)
  orth_ext : int array;  (* caller's row of internal orthant row i *)
}

let dim t = t.n
let n_rows t = t.mo + (3 * t.nsoc)

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

(* Pack an array of truncated rows into one contiguous buffer; the
   row-pointer layout keeps every G kernel a single linear sweep. *)
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

let make ~c ~n_orthant ~g ~h =
  let n = Vec.dim c and q = Array.length g in
  if
    Vec.dim h <> q || n_orthant < 0 || n_orthant > q
    || (q - n_orthant) mod 3 <> 0
  then invalid_arg "Conic.make: row counts do not match the cones";
  Array.iter
    (fun (lo, row) ->
      if lo < 0 || lo + Array.length row > n then
        invalid_arg "Conic.make: a row leaves the columns")
    g;
  let gdata, goff = pack_rows g in
  {
    n; mo = n_orthant; nsoc = (q - n_orthant) / 3; c;
    gdata; goff; glo = Array.map fst g; hi = h;
    orth_ext = Array.init n_orthant Fun.id;
  }

let with_constant t ~row value =
  if row < 0 || row >= t.mo then
    invalid_arg "Conic.with_constant: not an orthant row";
  let hi = Vec.copy t.hi in
  hi.(row) <- value;
  { t with hi }

(* ------------------------------------------------------------------ *)
(* Sparse-row kernels                                                 *)
(* ------------------------------------------------------------------ *)

(* The three G kernels below account for the bulk of a solve (every
   iteration walks the nnz row pack around fifteen times), so they
   use unchecked array access, as {!admit}'s row pass below does and
   as the hot loops of nine other modules do ([Mat], [Block_tridiag],
   [Rc_model], [Sim]'s [Chip], [Machine], [Policy], [Probe] and
   [Stats], [Fleet]'s [Cluster]).  The indices are safe by
   construction of pack_rows (and of pack_working_set, which copies
   whole rows of such a pack): for row [i < n_rows t], [gdata]/[goff]
   entries lie in [goff.(i), goff.(i+1)) within [0, nnz), and the
   column window [glo.(i), glo.(i) + len) lies within [0, n).

   Each kernel special-cases rows of exactly eight entries with a
   hand-unrolled body.  In the thermal models the per-node
   temperature rows all couple the full frequency (or power) block —
   eight columns — so upward of 95% of rows take this branch, and the
   fixed-trip unrolled code is 2-3x faster than the generic loop
   (measured: the compiler does not unroll, and the single-
   accumulator reduction serializes on FP-add latency). *)

(* dst := G x *)
let g_mulvec t x ~dst =
  let gd = t.gdata and off = t.goff and lo = t.glo in
  for i = 0 to n_rows t - 1 do
    let s = Array.unsafe_get off i in
    let e = Array.unsafe_get off (i + 1) in
    let l = Array.unsafe_get lo i in
    if e - s = 8 then begin
      let a0 =
        (Array.unsafe_get gd s *. Array.unsafe_get x l)
        +. (Array.unsafe_get gd (s + 1) *. Array.unsafe_get x (l + 1))
      and a1 =
        (Array.unsafe_get gd (s + 2) *. Array.unsafe_get x (l + 2))
        +. (Array.unsafe_get gd (s + 3) *. Array.unsafe_get x (l + 3))
      and a2 =
        (Array.unsafe_get gd (s + 4) *. Array.unsafe_get x (l + 4))
        +. (Array.unsafe_get gd (s + 5) *. Array.unsafe_get x (l + 5))
      and a3 =
        (Array.unsafe_get gd (s + 6) *. Array.unsafe_get x (l + 6))
        +. (Array.unsafe_get gd (s + 7) *. Array.unsafe_get x (l + 7))
      in
      Array.unsafe_set dst i ((a0 +. a1) +. (a2 +. a3))
    end
    else begin
      let sh = l - s in
      let acc = ref 0.0 in
      for k = s to e - 1 do
        acc :=
          !acc +. (Array.unsafe_get gd k *. Array.unsafe_get x (sh + k))
      done;
      Array.unsafe_set dst i !acc
    end
  done

(* dst := G' v *)
let g_tmulvec t v ~dst =
  Vec.fill dst 0.0;
  let gd = t.gdata and off = t.goff and lo = t.glo in
  for i = 0 to n_rows t - 1 do
    let vi = Array.unsafe_get v i in
    let s = Array.unsafe_get off i in
    let e = Array.unsafe_get off (i + 1) in
    let l = Array.unsafe_get lo i in
    if e - s = 8 then begin
      Array.unsafe_set dst l
        (Array.unsafe_get dst l +. (vi *. Array.unsafe_get gd s));
      Array.unsafe_set dst (l + 1)
        (Array.unsafe_get dst (l + 1)
        +. (vi *. Array.unsafe_get gd (s + 1)));
      Array.unsafe_set dst (l + 2)
        (Array.unsafe_get dst (l + 2)
        +. (vi *. Array.unsafe_get gd (s + 2)));
      Array.unsafe_set dst (l + 3)
        (Array.unsafe_get dst (l + 3)
        +. (vi *. Array.unsafe_get gd (s + 3)));
      Array.unsafe_set dst (l + 4)
        (Array.unsafe_get dst (l + 4)
        +. (vi *. Array.unsafe_get gd (s + 4)));
      Array.unsafe_set dst (l + 5)
        (Array.unsafe_get dst (l + 5)
        +. (vi *. Array.unsafe_get gd (s + 5)));
      Array.unsafe_set dst (l + 6)
        (Array.unsafe_get dst (l + 6)
        +. (vi *. Array.unsafe_get gd (s + 6)));
      Array.unsafe_set dst (l + 7)
        (Array.unsafe_get dst (l + 7)
        +. (vi *. Array.unsafe_get gd (s + 7)))
    end
    else begin
      let sh = l - s in
      for k = s to e - 1 do
        Array.unsafe_set dst (sh + k)
          (Array.unsafe_get dst (sh + k)
          +. (vi *. Array.unsafe_get gd k))
      done
    end
  done

(* marr (flat n x n, upper triangle) += G' diag(d) G *)
let g_syrk t d ~marr =
  let gd = t.gdata and off = t.goff and lo = t.glo and n = t.n in
  for i = 0 to n_rows t - 1 do
    let s = Array.unsafe_get off i in
    let e = Array.unsafe_get off (i + 1) in
    let l = Array.unsafe_get lo i in
    let di = Array.unsafe_get d i in
    if e - s = 8 then begin
      let g0 = Array.unsafe_get gd s
      and g1 = Array.unsafe_get gd (s + 1)
      and g2 = Array.unsafe_get gd (s + 2)
      and g3 = Array.unsafe_get gd (s + 3)
      and g4 = Array.unsafe_get gd (s + 4)
      and g5 = Array.unsafe_get gd (s + 5)
      and g6 = Array.unsafe_get gd (s + 6)
      and g7 = Array.unsafe_get gd (s + 7) in
      let c0 = di *. g0
      and c1 = di *. g1
      and c2 = di *. g2
      and c3 = di *. g3
      and c4 = di *. g4
      and c5 = di *. g5
      and c6 = di *. g6
      and c7 = di *. g7 in
      let b0 = (l * n) + l in
      Array.unsafe_set marr b0 (Array.unsafe_get marr b0 +. (c0 *. g0));
      Array.unsafe_set marr (b0 + 1)
        (Array.unsafe_get marr (b0 + 1) +. (c0 *. g1));
      Array.unsafe_set marr (b0 + 2)
        (Array.unsafe_get marr (b0 + 2) +. (c0 *. g2));
      Array.unsafe_set marr (b0 + 3)
        (Array.unsafe_get marr (b0 + 3) +. (c0 *. g3));
      Array.unsafe_set marr (b0 + 4)
        (Array.unsafe_get marr (b0 + 4) +. (c0 *. g4));
      Array.unsafe_set marr (b0 + 5)
        (Array.unsafe_get marr (b0 + 5) +. (c0 *. g5));
      Array.unsafe_set marr (b0 + 6)
        (Array.unsafe_get marr (b0 + 6) +. (c0 *. g6));
      Array.unsafe_set marr (b0 + 7)
        (Array.unsafe_get marr (b0 + 7) +. (c0 *. g7));
      let b1 = b0 + n + 1 in
      Array.unsafe_set marr b1 (Array.unsafe_get marr b1 +. (c1 *. g1));
      Array.unsafe_set marr (b1 + 1)
        (Array.unsafe_get marr (b1 + 1) +. (c1 *. g2));
      Array.unsafe_set marr (b1 + 2)
        (Array.unsafe_get marr (b1 + 2) +. (c1 *. g3));
      Array.unsafe_set marr (b1 + 3)
        (Array.unsafe_get marr (b1 + 3) +. (c1 *. g4));
      Array.unsafe_set marr (b1 + 4)
        (Array.unsafe_get marr (b1 + 4) +. (c1 *. g5));
      Array.unsafe_set marr (b1 + 5)
        (Array.unsafe_get marr (b1 + 5) +. (c1 *. g6));
      Array.unsafe_set marr (b1 + 6)
        (Array.unsafe_get marr (b1 + 6) +. (c1 *. g7));
      let b2 = b1 + n + 1 in
      Array.unsafe_set marr b2 (Array.unsafe_get marr b2 +. (c2 *. g2));
      Array.unsafe_set marr (b2 + 1)
        (Array.unsafe_get marr (b2 + 1) +. (c2 *. g3));
      Array.unsafe_set marr (b2 + 2)
        (Array.unsafe_get marr (b2 + 2) +. (c2 *. g4));
      Array.unsafe_set marr (b2 + 3)
        (Array.unsafe_get marr (b2 + 3) +. (c2 *. g5));
      Array.unsafe_set marr (b2 + 4)
        (Array.unsafe_get marr (b2 + 4) +. (c2 *. g6));
      Array.unsafe_set marr (b2 + 5)
        (Array.unsafe_get marr (b2 + 5) +. (c2 *. g7));
      let b3 = b2 + n + 1 in
      Array.unsafe_set marr b3 (Array.unsafe_get marr b3 +. (c3 *. g3));
      Array.unsafe_set marr (b3 + 1)
        (Array.unsafe_get marr (b3 + 1) +. (c3 *. g4));
      Array.unsafe_set marr (b3 + 2)
        (Array.unsafe_get marr (b3 + 2) +. (c3 *. g5));
      Array.unsafe_set marr (b3 + 3)
        (Array.unsafe_get marr (b3 + 3) +. (c3 *. g6));
      Array.unsafe_set marr (b3 + 4)
        (Array.unsafe_get marr (b3 + 4) +. (c3 *. g7));
      let b4 = b3 + n + 1 in
      Array.unsafe_set marr b4 (Array.unsafe_get marr b4 +. (c4 *. g4));
      Array.unsafe_set marr (b4 + 1)
        (Array.unsafe_get marr (b4 + 1) +. (c4 *. g5));
      Array.unsafe_set marr (b4 + 2)
        (Array.unsafe_get marr (b4 + 2) +. (c4 *. g6));
      Array.unsafe_set marr (b4 + 3)
        (Array.unsafe_get marr (b4 + 3) +. (c4 *. g7));
      let b5 = b4 + n + 1 in
      Array.unsafe_set marr b5 (Array.unsafe_get marr b5 +. (c5 *. g5));
      Array.unsafe_set marr (b5 + 1)
        (Array.unsafe_get marr (b5 + 1) +. (c5 *. g6));
      Array.unsafe_set marr (b5 + 2)
        (Array.unsafe_get marr (b5 + 2) +. (c5 *. g7));
      let b6 = b5 + n + 1 in
      Array.unsafe_set marr b6 (Array.unsafe_get marr b6 +. (c6 *. g6));
      Array.unsafe_set marr (b6 + 1)
        (Array.unsafe_get marr (b6 + 1) +. (c6 *. g7));
      let b7 = b6 + n + 1 in
      Array.unsafe_set marr b7 (Array.unsafe_get marr b7 +. (c7 *. g7))
    end
    else
      for a = s to e - 1 do
        let ca = di *. Array.unsafe_get gd a in
        let base = ((l + a - s) * n) + l - s in
        for bk = a to e - 1 do
          Array.unsafe_set marr (base + bk)
            (Array.unsafe_get marr (base + bk)
            +. (ca *. Array.unsafe_get gd bk))
        done
      done
  done

(* The value G_i x - h_i of orthant row [i] at [x], which holds when it
   is <= 0.  Inlined, so the float it returns is never boxed. *)
let[@inline] row_value t i x =
  let gd = t.gdata and s = t.goff.(i) and e = t.goff.(i + 1) in
  let sh = t.glo.(i) - s in
  let acc = ref 0.0 in
  for k = s to e - 1 do
    acc := !acc +. (gd.(k) *. x.(sh + k))
  done;
  !acc -. t.hi.(i)

(* [G_i x] for a row of exactly eight entries starting at pack offset
   [s] and column [l], unrolled but in {!row_value}'s order — the
   left-to-right sum from [0.0], not {!g_mulvec}'s tree — so it has
   the same bits.  The caller guarantees the eight entries lie in [gd]
   and [x]. *)
let[@inline] row_dot8 gd s x l =
  (((((((0.0 +. (Array.unsafe_get gd s *. Array.unsafe_get x l))
        +. (Array.unsafe_get gd (s + 1) *. Array.unsafe_get x (l + 1)))
       +. (Array.unsafe_get gd (s + 2) *. Array.unsafe_get x (l + 2)))
      +. (Array.unsafe_get gd (s + 3) *. Array.unsafe_get x (l + 3)))
     +. (Array.unsafe_get gd (s + 4) *. Array.unsafe_get x (l + 4)))
    +. (Array.unsafe_get gd (s + 5) *. Array.unsafe_get x (l + 5)))
   +. (Array.unsafe_get gd (s + 6) *. Array.unsafe_get x (l + 6)))
  +. (Array.unsafe_get gd (s + 7) *. Array.unsafe_get x (l + 7))

(* ------------------------------------------------------------------ *)
(* Tolerances, stats                                                  *)
(* ------------------------------------------------------------------ *)

let feas_tol = 1e-7
let gap_abs_tol = 1e-8
let gap_rel_tol = 1e-6
let max_iter = 100

(* Fraction-to-boundary step scaling. *)
let step_frac = 0.98

(* Initial complementarity of a warm start (a cold one starts at 1):
   small, because the seed is this instance's optimum on fewer rows
   and so already near-optimal. *)
let warm_mu = 0.003

type stats = {
  iterations : int;
  predictor_steps : int;
  corrector_steps : int;
  factorizations : int;
  jitter_retries : int;
  optimal : int;
  primal_infeasible : int;
  dual_infeasible : int;
  unknown : int;
}

let stats_zero =
  { iterations = 0; predictor_steps = 0; corrector_steps = 0;
    factorizations = 0; jitter_retries = 0; optimal = 0;
    primal_infeasible = 0; dual_infeasible = 0; unknown = 0 }

let stats_add a b =
  {
    iterations = a.iterations + b.iterations;
    predictor_steps = a.predictor_steps + b.predictor_steps;
    corrector_steps = a.corrector_steps + b.corrector_steps;
    factorizations = a.factorizations + b.factorizations;
    jitter_retries = a.jitter_retries + b.jitter_retries;
    optimal = a.optimal + b.optimal;
    primal_infeasible = a.primal_infeasible + b.primal_infeasible;
    dual_infeasible = a.dual_infeasible + b.dual_infeasible;
    unknown = a.unknown + b.unknown;
  }

type solution = {
  x : Vec.t;
  s : Vec.t;
  z : Vec.t;
  objective_value : float;
  gap : float;
  iterations : int;
}

type status =
  | Optimal of solution
  | Primal_infeasible of { z : Vec.t }
  | Dual_infeasible of { x : Vec.t }
  | Unknown of solution

(* ------------------------------------------------------------------ *)
(* Per-solve workspace                                                *)
(* ------------------------------------------------------------------ *)

type ws = {
  mutable t : t;
  (* Every array below of one entry per cone row (or per orthant row)
     holds [cap] entries: enough for the largest working set solved so
     far (reserve_rows), not necessarily for all of [full]. *)
  mutable cap : int;
  (* iterate (internal row order) *)
  x : Vec.t;
  mutable z : Vec.t;
  mutable s : Vec.t;
  mutable tau : float;
  mutable kappa : float;
  (* residuals *)
  rx : Vec.t;
  mutable rz : Vec.t;
  mutable rt : float;
  mutable mu : float;
  mutable norm_rz : float;  (* |rz|_inf, fused into the rz pass *)
  mutable gap_sz : float;  (* s'z, fused into the rz pass *)
  mutable hz_dot : float;  (* h'z, fused into the rz pass *)
  mutable refine_passes : int;
  (* Nesterov-Todd scaling *)
  mutable w_o : Vec.t;  (* orthant sqrt(s/z) *)
  mutable w2inv_o : Vec.t;  (* orthant z/s *)
  mutable dweights : Vec.t;  (* syrk weights, one per internal row *)
  wbar : Vec.t;  (* 3 per SOC block: the unit-hyperboloid point *)
  eta : Vec.t;  (* 1 per SOC block *)
  mutable lam : Vec.t;  (* scaled point lambda = W z *)
  (* KKT *)
  marr : float array;  (* flat n x n accumulator for G' W^-2 G *)
  m_mat : Mat.t;
  fact : Block_tridiag.t;
  bvec : Vec.t;  (* n: SOC rank-one row G_k' (J wbar) *)
  (* per-iteration precomputations for the tau recovery *)
  mutable w2h : Vec.t;  (* W^-2 h *)
  gw2h : Vec.t;  (* G' W^-2 h *)
  mutable gu1x : Vec.t;  (* G u1x *)
  mutable cbh1 : float;  (* c'u1x + h'u1z *)
  (* u1 = K2^-1 (-c, h), x component only *)
  u1x : Vec.t;
  (* u2 and the search direction *)
  u2x : Vec.t;
  dx : Vec.t;
  mutable dz : Vec.t;
  mutable ds : Vec.t;
  mutable dtau : float;
  mutable dkappa : float;
  (* affine (predictor) quantities kept for the corrector *)
  mutable dsa : Vec.t;  (* W^-1 ds_aff *)
  mutable dza : Vec.t;  (* W dz_aff *)
  mutable dtau_a : float;
  mutable dkappa_a : float;
  (* RHS and scratch *)
  rhsn : Vec.t;
  mutable bzv : Vec.t;
  mutable dst_s : Vec.t;  (* lambda \ rhs5 *)
  tmp_n : Vec.t;
  mutable tmp_q : Vec.t;
  mutable tmp_q2 : Vec.t;
  ref_n : Vec.t;
  cor_n : Vec.t;
  (* best iterate seen so far (by residual/gap merit) *)
  best_x : Vec.t;
  mutable best_s : Vec.t;
  mutable best_z : Vec.t;
  mutable best_tau : float;
  mutable best_kappa : float;
  mutable best_merit : float;
  mutable stall_count : int;
  (* problem norms for the stopping tests *)
  mutable norm_c : float;
  mutable norm_h : float;
  (* Working set.  [full] is the instance handed to the current solve;
     [t] is [full] itself, or its restriction to the working set packed
     into the [w_*] buffers ([cap] rows, [w_gdata] grown likewise). *)
  mutable full : t;
  mutable opt_lo : int;  (* orthant rows [opt_lo, opt_hi) are optional *)
  mutable opt_hi : int;
  in_set : Bytes.t;  (* per orthant row of [full]: '\001' if in the set *)
  sub_row : int array;  (* orthant row of [full] -> row of [t], or -1 *)
  mutable w_gdata : float array;
  mutable w_goff : int array;
  mutable w_glo : int array;
  mutable w_hi : Vec.t;
  mutable w_orth_ext : int array;
}

type workspace = ws

(* A workspace starts with no row capacity: its first solve sizes it
   for that solve's working set.  The norms and cross-iteration
   scalars are set by every solve's [rebind_ws]. *)
let make_workspace ?kkt t =
  let n = t.n in
  let sizes = match kkt with Some (`Blocks sizes) -> sizes | None -> [| n |] in
  if Array.fold_left ( + ) 0 sizes <> n then
    invalid_arg "Conic.make_workspace: block sizes do not sum to dim";
  let q = 0 in
  {
    t;
    cap = q;
    x = Vec.zeros n; z = Vec.zeros q; s = Vec.zeros q;
    tau = 1.0; kappa = 1.0;
    rx = Vec.zeros n; rz = Vec.zeros q;
    rt = 0.0; mu = 1.0; norm_rz = 0.0; gap_sz = 0.0; hz_dot = 0.0;
    refine_passes = 1;
    w_o = Vec.zeros q; w2inv_o = Vec.zeros q;
    dweights = Vec.zeros q;
    wbar = Vec.zeros (3 * t.nsoc); eta = Vec.zeros t.nsoc;
    lam = Vec.zeros q;
    marr = Array.make (n * n) 0.0;
    m_mat = Mat.zeros n n;
    fact = Block_tridiag.preallocate sizes;
    bvec = Vec.zeros n;
    w2h = Vec.zeros q; gw2h = Vec.zeros n; gu1x = Vec.zeros q;
    cbh1 = 0.0;
    u1x = Vec.zeros n; u2x = Vec.zeros n;
    dx = Vec.zeros n; dz = Vec.zeros q; ds = Vec.zeros q;
    dtau = 0.0; dkappa = 0.0;
    dsa = Vec.zeros q; dza = Vec.zeros q;
    dtau_a = 0.0; dkappa_a = 0.0;
    rhsn = Vec.zeros n; bzv = Vec.zeros q;
    dst_s = Vec.zeros q;
    tmp_n = Vec.zeros n; tmp_q = Vec.zeros q; tmp_q2 = Vec.zeros q;
    ref_n = Vec.zeros n; cor_n = Vec.zeros n;
    best_x = Vec.zeros n;
    best_s = Vec.zeros q; best_z = Vec.zeros q;
    best_tau = 1.0; best_kappa = 1.0; best_merit = infinity;
    stall_count = 0;
    norm_c = 0.0;
    norm_h = 0.0;
    full = t;
    opt_lo = 0;
    opt_hi = 0;
    in_set = Bytes.make t.mo '\001';
    sub_row = Array.init t.mo (fun i -> i);
    w_gdata = [||];
    w_goff = Array.make (q + 1) 0;
    w_glo = Array.make q 0;
    w_hi = Vec.zeros q;
    w_orth_ext = Array.make q 0;
  }

(* Make room for [rows] cone rows.  Called before a solve, when every
   row-shaped array is about to be overwritten, so nothing is copied.
   A working set that outgrows the capacity gets a quarter more than
   it needs (at most all of [full]'s rows), so a growing sequence of
   sets reallocates a logarithmic number of times.  Not double: the
   hot rows of a guard-banded table need sets near the full size, and
   with the packed-row buffers a doubled workspace would outgrow a
   full-size one. *)
let reserve_rows st rows =
  if rows > st.cap then begin
    let q = Int.min (n_rows st.full) (rows + (rows / 4)) in
    st.cap <- q;
    st.z <- Vec.zeros q; st.s <- Vec.zeros q; st.rz <- Vec.zeros q;
    st.w_o <- Vec.zeros q; st.w2inv_o <- Vec.zeros q;
    st.dweights <- Vec.zeros q; st.lam <- Vec.zeros q;
    st.w2h <- Vec.zeros q; st.gu1x <- Vec.zeros q;
    st.dz <- Vec.zeros q; st.ds <- Vec.zeros q;
    st.dsa <- Vec.zeros q; st.dza <- Vec.zeros q;
    st.bzv <- Vec.zeros q; st.dst_s <- Vec.zeros q;
    st.tmp_q <- Vec.zeros q; st.tmp_q2 <- Vec.zeros q;
    st.best_s <- Vec.zeros q; st.best_z <- Vec.zeros q;
    st.w_goff <- Array.make (q + 1) 0;
    st.w_glo <- Array.make q 0;
    st.w_hi <- Vec.zeros q;
    st.w_orth_ext <- Array.make q 0
  end

(* The working set's cone rows and stored G entries. *)
let working_set_size st t =
  let rows = ref (3 * t.nsoc) in
  let nnz = ref (t.goff.(n_rows t) - t.goff.(t.mo)) in
  for i = 0 to t.mo - 1 do
    if Bytes.get st.in_set i <> '\000' then begin
      incr rows;
      nnz := !nnz + t.goff.(i + 1) - t.goff.(i)
    end
  done;
  (!rows, !nnz)

(* Pack the working-set restriction of [t] into the workspace's
   buffers: the member orthant rows in order, then every SOC block,
   each row's stripe copied as is.  Returns the restriction's orthant
   row count and records where each orthant row of [t] went. *)
let pack_working_set st t =
  let mo = ref 0 and nz = ref 0 in
  for i = 0 to n_rows t - 1 do
    if i >= t.mo || Bytes.unsafe_get st.in_set i <> '\000' then begin
      let r = !mo + (if i < t.mo then 0 else i - t.mo) in
      let s = t.goff.(i) in
      let len = t.goff.(i + 1) - s in
      Array.blit t.gdata s st.w_gdata !nz len;
      st.w_goff.(r) <- !nz;
      st.w_glo.(r) <- t.glo.(i);
      st.w_hi.(r) <- t.hi.(i);
      nz := !nz + len;
      if i < t.mo then begin
        st.w_orth_ext.(r) <- t.orth_ext.(i);
        st.sub_row.(i) <- r;
        incr mo
      end
    end
    else st.sub_row.(i) <- -1
  done;
  st.w_goff.(!mo + (3 * t.nsoc)) <- !nz;
  !mo

let same_shape a b = a.n = b.n && a.mo = b.mo && a.nsoc = b.nsoc

let norm_inf_rows v q =
  let m = ref 0.0 in
  for j = 0 to q - 1 do
    m := Float.max !m (Float.abs v.(j))
  done;
  !m

(* Re-point a preallocated workspace at a (structurally identical)
   instance, restricted to the working set when one is in force:
   everything array-shaped is overwritten by the first iteration, so
   only the instance pointer, the problem norms, and the
   cross-iteration scalars need resetting. *)
let rebind_ws st t =
  if not (same_shape st.full t) then
    invalid_arg "Conic.solve: workspace shape mismatch";
  st.full <- t;
  if st.opt_lo < st.opt_hi then begin
    let rows, nnz = working_set_size st t in
    reserve_rows st rows;
    if nnz > Array.length st.w_gdata then
      st.w_gdata <- Array.make (Int.min t.goff.(n_rows t) (nnz + (nnz / 4))) 0.0;
    let mo = pack_working_set st t in
    st.t <-
      { t with mo; gdata = st.w_gdata; goff = st.w_goff; glo = st.w_glo;
               hi = st.w_hi; orth_ext = st.w_orth_ext }
  end
  else begin
    reserve_rows st (n_rows t);
    for i = 0 to t.mo - 1 do
      st.sub_row.(i) <- i
    done;
    st.t <- t
  end;
  let t = st.t in
  st.norm_c <- (if t.n = 0 then 0.0 else Vec.norm_inf t.c);
  st.norm_h <- norm_inf_rows t.hi (n_rows t);
  st.refine_passes <- 1;
  st.mu <- 1.0;
  st.best_tau <- 1.0;
  st.best_kappa <- 1.0;
  st.best_merit <- infinity;
  st.stall_count <- 0

(* ------------------------------------------------------------------ *)
(* Scaling and Jordan-algebra kernels (internal row order)            *)
(* ------------------------------------------------------------------ *)

(* W u, inlined wherever it is applied: orthant diag(w_o); SOC block
   eta * Wbar with
   Wbar v = (wb0 v0 + wb' v', v' + wb (v0 + (wb' v')/(1 + wb0))). *)
(* dst := W^-2 u.  Orthant: diag(z/s); SOC: with v = J wbar,
   (Wbar^2)^-1 = 2 v v' - J, so dst = eta^-2 (2 v (v'u) - J u).
   Safe when dst == u. *)
let apply_w2inv st u ~dst =
  let t = st.t in
  for i = 0 to t.mo - 1 do
    dst.(i) <- st.w2inv_o.(i) *. u.(i)
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let wb0 = st.wbar.(wb)
    and wb1 = st.wbar.(wb + 1)
    and wb2 = st.wbar.(wb + 2) in
    let e = st.eta.(k) in
    let e2inv = 1.0 /. (e *. e) in
    let u0 = u.(r0) and u1 = u.(r0 + 1) and u2 = u.(r0 + 2) in
    let d = (wb0 *. u0) -. (wb1 *. u1) -. (wb2 *. u2) in
    dst.(r0) <- e2inv *. ((2.0 *. wb0 *. d) -. u0);
    dst.(r0 + 1) <- e2inv *. ((-2.0 *. wb1 *. d) +. u1);
    dst.(r0 + 2) <- e2inv *. ((-2.0 *. wb2 *. d) +. u2)
  done

(* dst := G' (W^-2 v) in one sweep: the orthant scaling is diagonal,
   so it folds into the row coefficient for free; the few SOC blocks
   are pre-scaled into the SOC slots of tmp_q first.  Saves a full
   q-length pass over apply_w2inv + g_tmulvec in both direction
   builds. *)
let g_tmulvec_w2inv st v ~dst =
  let t = st.t in
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let wb0 = st.wbar.(wb)
    and wb1 = st.wbar.(wb + 1)
    and wb2 = st.wbar.(wb + 2) in
    let e = st.eta.(k) in
    let e2inv = 1.0 /. (e *. e) in
    let u0 = v.(r0) and u1 = v.(r0 + 1) and u2 = v.(r0 + 2) in
    let d = (wb0 *. u0) -. (wb1 *. u1) -. (wb2 *. u2) in
    st.tmp_q.(r0) <- e2inv *. ((2.0 *. wb0 *. d) -. u0);
    st.tmp_q.(r0 + 1) <- e2inv *. ((-2.0 *. wb1 *. d) +. u1);
    st.tmp_q.(r0 + 2) <- e2inv *. ((-2.0 *. wb2 *. d) +. u2)
  done;
  Vec.fill dst 0.0;
  let gd = t.gdata and off = t.goff and lo = t.glo in
  let w2 = st.w2inv_o and tq = st.tmp_q and mo = t.mo in
  for i = 0 to n_rows t - 1 do
    let vi =
      if i < mo then Array.unsafe_get w2 i *. Array.unsafe_get v i
      else Array.unsafe_get tq i
    in
    let s = Array.unsafe_get off i in
    let e = Array.unsafe_get off (i + 1) in
    let l = Array.unsafe_get lo i in
    if e - s = 8 then begin
      Array.unsafe_set dst l
        (Array.unsafe_get dst l +. (vi *. Array.unsafe_get gd s));
      Array.unsafe_set dst (l + 1)
        (Array.unsafe_get dst (l + 1)
        +. (vi *. Array.unsafe_get gd (s + 1)));
      Array.unsafe_set dst (l + 2)
        (Array.unsafe_get dst (l + 2)
        +. (vi *. Array.unsafe_get gd (s + 2)));
      Array.unsafe_set dst (l + 3)
        (Array.unsafe_get dst (l + 3)
        +. (vi *. Array.unsafe_get gd (s + 3)));
      Array.unsafe_set dst (l + 4)
        (Array.unsafe_get dst (l + 4)
        +. (vi *. Array.unsafe_get gd (s + 4)));
      Array.unsafe_set dst (l + 5)
        (Array.unsafe_get dst (l + 5)
        +. (vi *. Array.unsafe_get gd (s + 5)));
      Array.unsafe_set dst (l + 6)
        (Array.unsafe_get dst (l + 6)
        +. (vi *. Array.unsafe_get gd (s + 6)));
      Array.unsafe_set dst (l + 7)
        (Array.unsafe_get dst (l + 7)
        +. (vi *. Array.unsafe_get gd (s + 7)))
    end
    else begin
      let sh = l - s in
      for k = s to e - 1 do
        Array.unsafe_set dst (sh + k)
          (Array.unsafe_get dst (sh + k)
          +. (vi *. Array.unsafe_get gd k))
      done
    end
  done

(* Compute the NT scaling at the current (s, z) and the scaled point
   lambda = W z, plus the per-row syrk weights for the diagonal part
   of W^-2 (the SOC rank-one correction is added in assemble_m). *)
let compute_scaling st =
  let t = st.t in
  let s = st.s and z = st.z and wo = st.w_o and w2 = st.w2inv_o in
  let dw = st.dweights and lam = st.lam in
  for i = 0 to t.mo - 1 do
    let si = Array.unsafe_get s i and zi = Array.unsafe_get z i in
    let w = sqrt (si /. zi) in
    let w2i = zi /. si in
    Array.unsafe_set wo i w;
    Array.unsafe_set w2 i w2i;
    Array.unsafe_set dw i w2i;
    Array.unsafe_set lam i (w *. zi)
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let s0 = st.s.(r0) and s1 = st.s.(r0 + 1) and s2 = st.s.(r0 + 2) in
    let z0 = st.z.(r0) and z1 = st.z.(r0 + 1) and z2 = st.z.(r0 + 2) in
    let rs = (s0 *. s0) -. (s1 *. s1) -. (s2 *. s2) in
    let rz = (z0 *. z0) -. (z1 *. z1) -. (z2 *. z2) in
    let srs = sqrt rs and srz = sqrt rz in
    let sb0 = s0 /. srs and sb1 = s1 /. srs and sb2 = s2 /. srs in
    let zb0 = z0 /. srz and zb1 = z1 /. srz and zb2 = z2 /. srz in
    let szdot = (sb0 *. zb0) +. (sb1 *. zb1) +. (sb2 *. zb2) in
    let gamma = sqrt ((1.0 +. szdot) /. 2.0) in
    st.wbar.(wb) <- (sb0 +. zb0) /. (2.0 *. gamma);
    st.wbar.(wb + 1) <- (sb1 -. zb1) /. (2.0 *. gamma);
    st.wbar.(wb + 2) <- (sb2 -. zb2) /. (2.0 *. gamma);
    let e = sqrt (sqrt (rs /. rz)) in
    st.eta.(k) <- e;
    let e2inv = 1.0 /. (e *. e) in
    st.dweights.(r0) <- -.e2inv;
    st.dweights.(r0 + 1) <- e2inv;
    st.dweights.(r0 + 2) <- e2inv;
    let wb0' = st.wbar.(wb)
    and wb1' = st.wbar.(wb + 1)
    and wb2' = st.wbar.(wb + 2) in
    let d = (wb1' *. z1) +. (wb2' *. z2) in
    let f = z0 +. (d /. (1.0 +. wb0')) in
    lam.(r0) <- e *. ((wb0' *. z0) +. d);
    lam.(r0 + 1) <- e *. (z1 +. (wb1' *. f));
    lam.(r0 + 2) <- e *. (z2 +. (wb2' *. f))
  done

(* M := G' W^-2 G, accumulated in the flat upper-triangle buffer: one
   ranged syrk with the diagonal weights (orthant z/s; SOC -eta^-2 on
   the leading row, +eta^-2 on the rest, the "-J" part of
   (Wbar^2)^-1), then a rank-one correction 2 eta^-2 b b' per SOC
   block with b = G_k' (J wbar), supported on the union stripe of the
   block's rows.  The lower triangle of m_mat is what {!Chol} and
   {!Block_tridiag} read, so the copy-out transposes. *)
let assemble_m st =
  let t = st.t in
  let n = t.n in
  Array.fill st.marr 0 (n * n) 0.0;
  g_syrk t st.dweights ~marr:st.marr;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let wb0 = st.wbar.(wb)
    and wb1 = st.wbar.(wb + 1)
    and wb2 = st.wbar.(wb + 2) in
    let lo = ref n and hi = ref 0 in
    for rr = r0 to r0 + 2 do
      let l = t.glo.(rr) and len = t.goff.(rr + 1) - t.goff.(rr) in
      if len > 0 then begin
        if l < !lo then lo := l;
        if l + len > !hi then hi := l + len
      end
    done;
    if !hi > !lo then begin
      for j = !lo to !hi - 1 do
        st.bvec.(j) <- 0.0
      done;
      (* bvec += coeff * G_rr for the block's three rows, with
         coeff = wb0, -wb1, -wb2: inlined, since a local closure would
         allocate once per block and iteration. *)
      for rr = r0 to r0 + 2 do
        let coeff =
          if rr = r0 then wb0 else if rr = r0 + 1 then -.wb1 else -.wb2
        in
        let s0 = t.goff.(rr) in
        let sh = t.glo.(rr) - s0 in
        for kk = s0 to t.goff.(rr + 1) - 1 do
          st.bvec.(sh + kk) <- st.bvec.(sh + kk) +. (coeff *. t.gdata.(kk))
        done
      done;
      let e = st.eta.(k) in
      let c2 = 2.0 /. (e *. e) in
      for a = !lo to !hi - 1 do
        let ca = c2 *. st.bvec.(a) in
        let base = a * n in
        for b2 = a to !hi - 1 do
          st.marr.(base + b2) <- st.marr.(base + b2) +. (ca *. st.bvec.(b2))
        done
      done
    end
  done;
  (* Written straight into the storage: [Mat.set] would box each float
     across the module boundary. *)
  let md = Mat.data st.m_mat and marr = st.marr in
  for i = 0 to n - 1 do
    for j = 0 to i do
      Array.unsafe_set md ((i * n) + j) (Array.unsafe_get marr ((j * n) + i))
    done
  done

(* Solve K2 (ox, oz) = (r1, r3), where
     K2 = [ 0  G' ; G  -W^2 ],
   for ox, given the pre-assembled normal-equations RHS
     rhsn = r1 + G' W^-2 r3
   (M ox = rhsn).  oz is never materialized here: directions recover
   dz from the final dx, and the tau recovery accumulates h'oz
   elementwise.  [r1 = r1s * r1v] and [r3] are the original first- and
   second-block RHS, needed for iterative refinement against the
   {e true} residual
     r1 - G' W^-2 (G ox - r3):
   the difference (G ox - r3) is formed elementwise before the W^-2
   amplification, so this catches both the O(wbar0^2 eps) error in
   the assembled M and the cancellation incurred assembling rhsn —
   either alone destabilizes the last decades of mu. *)
let solve_x st ~r1s ~r1v ~r3 ~ox =
  let t = st.t in
  Block_tridiag.solve_factorized_into st.fact st.rhsn ~dst:ox;
  for _pass = 1 to st.refine_passes do
    g_mulvec t ox ~dst:st.tmp_q2;
    let q = t.mo + (3 * t.nsoc) in
    let tq2 = st.tmp_q2 in
    for j = 0 to q - 1 do
      Array.unsafe_set tq2 j (Array.unsafe_get tq2 j -. Array.unsafe_get r3 j)
    done;
    g_tmulvec_w2inv st st.tmp_q2 ~dst:st.ref_n;
    for j = 0 to t.n - 1 do
      st.ref_n.(j) <- (r1s *. r1v.(j)) -. st.ref_n.(j)
    done;
    Block_tridiag.solve_factorized_into st.fact st.ref_n ~dst:st.cor_n;
    Vec.axpy_into ~dst:ox 1.0 st.cor_n
  done

(* Per-iteration precomputations once the factorization is ready:
   W^-2 h, G'W^-2 h, and u1 = K2^-1 (-c, h), whose
   normal-equations RHS is exactly gw2h - c.  G u1x is kept so that
   h'u1z = sum_j w2h_j ((G u1x)_j - h_j) is accumulated elementwise
   — differencing the two large dots gw2h'u1x and h'W^-2 h instead
   cancels catastrophically once the active-set scalings blow up —
   and so the direction recovery can form G dx without a matvec. *)
let prepare_tau_recovery st =
  let t = st.t in
  apply_w2inv st t.hi ~dst:st.w2h;
  g_tmulvec t st.w2h ~dst:st.gw2h;
  for j = 0 to t.n - 1 do
    st.rhsn.(j) <- st.gw2h.(j) -. t.c.(j)
  done;
  solve_x st ~r1s:(-1.0) ~r1v:t.c ~r3:t.hi ~ox:st.u1x;
  g_mulvec t st.u1x ~dst:st.gu1x;
  let q = t.mo + (3 * t.nsoc) in
  let hz1 = ref 0.0 in
  for j = 0 to q - 1 do
    hz1 := !hz1 +. (st.w2h.(j) *. (st.gu1x.(j) -. t.hi.(j)))
  done;
  st.cbh1 <- Vec.dot t.c st.u1x +. !hz1

(* ------------------------------------------------------------------ *)
(* Residuals, step lengths                                            *)
(* ------------------------------------------------------------------ *)

(* HSDE residuals at the current iterate:
     rx = G'z + c tau        rz = G x + s - h tau
     rt = c'x + h'z + kappa
   and the complementarity measure mu = (s'z + tau kappa)/(deg + 1). *)
let compute_residuals st =
  let t = st.t in
  g_tmulvec t st.z ~dst:st.rx;
  Vec.axpy_into ~dst:st.rx st.tau t.c;
  g_mulvec t st.x ~dst:st.rz;
  (* One fused pass: assemble rz and pick up |rz|_inf, h'z and s'z
     along the way (the stopping tests and rt/mu reuse them). *)
  let q = t.mo + (3 * t.nsoc) in
  let rz = st.rz and s = st.s and z = st.z and hi = t.hi in
  let tau = st.tau in
  let nrz = ref 0.0 and hz = ref 0.0 and sz = ref 0.0 in
  for j = 0 to q - 1 do
    let sj = Array.unsafe_get s j
    and zj = Array.unsafe_get z j
    and hj = Array.unsafe_get hi j in
    let r = Array.unsafe_get rz j +. sj -. (tau *. hj) in
    Array.unsafe_set rz j r;
    let a = abs_float r in
    if a > !nrz then nrz := a;
    hz := !hz +. (hj *. zj);
    sz := !sz +. (sj *. zj)
  done;
  st.norm_rz <- !nrz;
  st.gap_sz <- !sz;
  st.hz_dot <- !hz;
  st.rt <- Vec.dot t.c st.x +. !hz +. st.kappa;
  let deg = float_of_int (t.mo + t.nsoc) in
  st.mu <- (!sz +. (st.tau *. st.kappa)) /. (deg +. 1.0)

(* Largest alpha with v + alpha dv still in the cone, for one SOC
   block: the smallest positive root of
   rho(v + alpha dv) = a alpha^2 + 2 b alpha + c0 (c0 > 0). *)
let[@inline] soc_max_step ~v0 ~v1 ~v2 ~d0 ~d1 ~d2 =
  let a = (d0 *. d0) -. (d1 *. d1) -. (d2 *. d2) in
  let b = (v0 *. d0) -. (v1 *. d1) -. (v2 *. d2) in
  let c0 = (v0 *. v0) -. (v1 *. v1) -. (v2 *. v2) in
  let tiny = 1e-14 *. (abs_float a +. abs_float b +. 1.0) in
  if abs_float a <= tiny then
    if b < 0.0 then -.c0 /. (2.0 *. b) else infinity
  else
    let disc = (b *. b) -. (a *. c0) in
    if a < 0.0 then ((-.b) -. sqrt disc) /. a
    else if disc < 0.0 || b >= 0.0 then infinity
    else ((-.b) -. sqrt disc) /. a

(* Largest feasible step for (s, ds), (z, dz), tau and kappa.  The
   running minimum is a local [ref] that does not escape, so it stays
   an unboxed register; the tau and kappa bounds are written out
   rather than through a closure over it, which would box it. *)
let max_step st =
  let t = st.t in
  let alpha = ref infinity in
  let s = st.s and z = st.z and ds = st.ds and dz = st.dz in
  for i = 0 to t.mo - 1 do
    let d = Array.unsafe_get ds i in
    if d < 0.0 then begin
      let r = -.Array.unsafe_get s i /. d in
      if r < !alpha then alpha := r
    end;
    let d = Array.unsafe_get dz i in
    if d < 0.0 then begin
      let r = -.Array.unsafe_get z i /. d in
      if r < !alpha then alpha := r
    end
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) in
    let a_s =
      soc_max_step ~v0:st.s.(r0) ~v1:st.s.(r0 + 1) ~v2:st.s.(r0 + 2)
        ~d0:st.ds.(r0) ~d1:st.ds.(r0 + 1) ~d2:st.ds.(r0 + 2)
    in
    if a_s < !alpha then alpha := a_s;
    let a_z =
      soc_max_step ~v0:st.z.(r0) ~v1:st.z.(r0 + 1) ~v2:st.z.(r0 + 2)
        ~d0:st.dz.(r0) ~d1:st.dz.(r0 + 1) ~d2:st.dz.(r0 + 2)
    in
    if a_z < !alpha then alpha := a_z
  done;
  let d = st.dtau in
  if d < 0.0 && -.st.tau /. d < !alpha then alpha := -.st.tau /. d;
  let d = st.dkappa in
  if d < 0.0 && -.st.kappa /. d < !alpha then alpha := -.st.kappa /. d;
  !alpha

(* ------------------------------------------------------------------ *)
(* Predictor / corrector steps (hot kernels; see lint.manifest)       *)
(* ------------------------------------------------------------------ *)

(* Shared tail of both steps.  On entry: rhsn holds the x RHS,
   bzv the z RHS of the Newton system, dst_s the scaled
   complementarity direction lambda \ rhs5, and (bt, btk) the tau and
   tau-kappa RHS.  Solves for u2x, recovers dtau from the
   precomputed u1/tau quantities, combines dx = u2x + dtau u1x, and
   reconstructs dz = W^-2 (G dx - bzv - dtau h) and
   ds = W (dst_s - W dz); W dz and W^-1 ds land in dza/dsa, which is
   exactly what the corrector's Gamma term needs from the predictor. *)
let recover_direction st ~r1s ~bt ~btk =
  let t = st.t in
  let q = t.mo + (3 * t.nsoc) in
  solve_x st ~r1s ~r1v:st.rx ~r3:st.bzv ~ox:st.u2x;
  g_mulvec t st.u2x ~dst:st.tmp_q2;
  let hz2 = ref 0.0 in
  for j = 0 to q - 1 do
    hz2 := !hz2 +. (st.w2h.(j) *. (st.tmp_q2.(j) -. st.bzv.(j)))
  done;
  let c2 = Vec.dot t.c st.u2x +. !hz2 in
  let dtau =
    (bt -. (btk /. st.tau) -. c2) /. (st.cbh1 -. (st.kappa /. st.tau))
  in
  st.dtau <- dtau;
  st.dkappa <- (btk -. (st.kappa *. dtau)) /. st.tau;
  for j = 0 to t.n - 1 do
    st.dx.(j) <- st.u2x.(j) +. (dtau *. st.u1x.(j))
  done;
  (* Reconstruct dz = W^-2 (G dx - bzv - dtau h), dza = W dz,
     dsa = dst_s - dza and ds = W dsa in a single fused pass over the
     orthant rows (all four scalings are diagonal there) plus a short
     loop over the SOC blocks. *)
  let tq2 = st.tmp_q2 and gu1 = st.gu1x and bzv = st.bzv and hi = t.hi in
  let dz = st.dz and dza = st.dza and dsa = st.dsa and ds = st.ds in
  let dss = st.dst_s and w2 = st.w2inv_o and wo = st.w_o in
  for j = 0 to t.mo - 1 do
    let t2 =
      Array.unsafe_get tq2 j
      +. (dtau *. Array.unsafe_get gu1 j)
      -. Array.unsafe_get bzv j
      -. (dtau *. Array.unsafe_get hi j)
    in
    let dzj = Array.unsafe_get w2 j *. t2 in
    let w = Array.unsafe_get wo j in
    let dzaj = w *. dzj in
    let dsaj = Array.unsafe_get dss j -. dzaj in
    Array.unsafe_set dz j dzj;
    Array.unsafe_set dza j dzaj;
    Array.unsafe_set dsa j dsaj;
    Array.unsafe_set ds j (w *. dsaj)
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let wb0 = st.wbar.(wb)
    and wb1 = st.wbar.(wb + 1)
    and wb2 = st.wbar.(wb + 2) in
    let e = st.eta.(k) in
    let e2inv = 1.0 /. (e *. e) in
    let t20 =
      tq2.(r0) +. (dtau *. gu1.(r0)) -. bzv.(r0) -. (dtau *. hi.(r0))
    and t21 =
      tq2.(r0 + 1) +. (dtau *. gu1.(r0 + 1)) -. bzv.(r0 + 1)
      -. (dtau *. hi.(r0 + 1))
    and t22 =
      tq2.(r0 + 2) +. (dtau *. gu1.(r0 + 2)) -. bzv.(r0 + 2)
      -. (dtau *. hi.(r0 + 2))
    in
    let d = (wb0 *. t20) -. (wb1 *. t21) -. (wb2 *. t22) in
    let dz0 = e2inv *. ((2.0 *. wb0 *. d) -. t20)
    and dz1 = e2inv *. ((-2.0 *. wb1 *. d) +. t21)
    and dz2 = e2inv *. ((-2.0 *. wb2 *. d) +. t22) in
    dz.(r0) <- dz0;
    dz.(r0 + 1) <- dz1;
    dz.(r0 + 2) <- dz2;
    let dd = (wb1 *. dz1) +. (wb2 *. dz2) in
    let f = dz0 +. (dd /. (1.0 +. wb0)) in
    let dza0 = e *. ((wb0 *. dz0) +. dd)
    and dza1 = e *. (dz1 +. (wb1 *. f))
    and dza2 = e *. (dz2 +. (wb2 *. f)) in
    dza.(r0) <- dza0;
    dza.(r0 + 1) <- dza1;
    dza.(r0 + 2) <- dza2;
    let dsa0 = dss.(r0) -. dza0
    and dsa1 = dss.(r0 + 1) -. dza1
    and dsa2 = dss.(r0 + 2) -. dza2 in
    dsa.(r0) <- dsa0;
    dsa.(r0 + 1) <- dsa1;
    dsa.(r0 + 2) <- dsa2;
    let dd2 = (wb1 *. dsa1) +. (wb2 *. dsa2) in
    let f2 = dsa0 +. (dd2 /. (1.0 +. wb0)) in
    ds.(r0) <- e *. ((wb0 *. dsa0) +. dd2);
    ds.(r0 + 1) <- e *. (dsa1 +. (wb1 *. f2));
    ds.(r0 + 2) <- e *. (dsa2 +. (wb2 *. f2))
  done

(* Affine-scaling (predictor) direction: Newton towards mu = 0, i.e.
   full residual RHS and lambda o (W dz + W^-1 ds) = -lambda o lambda,
   so dst_s = -lambda and the z RHS is -rz - W dst_s = s - rz (W
   lambda = W^2 z = s, exact for the NT scaling).  Returns the
   unscaled step to the boundary, capped at 1, which sets sigma. *)
let predictor_step st =
  let t = st.t in
  let q = t.mo + (3 * t.nsoc) in
  for j = 0 to q - 1 do
    st.dst_s.(j) <- -.st.lam.(j);
    st.bzv.(j) <- st.s.(j) -. st.rz.(j)
  done;
  g_tmulvec_w2inv st st.bzv ~dst:st.rhsn;
  Vec.axpy_into ~dst:st.rhsn (-1.0) st.rx;
  recover_direction st ~r1s:(-1.0) ~bt:(-.st.rt)
    ~btk:(-.(st.tau *. st.kappa));
  st.dtau_a <- st.dtau;
  st.dkappa_a <- st.dkappa;
  let a = max_step st in
  if a < 1.0 then a else 1.0

(* Mehrotra corrector: recenter towards sigma mu and cancel the
   second-order term Gamma = (W^-1 ds_aff) o (W dz_aff); the linear
   residuals are scaled by (1 - sigma).  Returns the step to the
   boundary for the combined direction. *)
let corrector_step st ~sigma =
  let t = st.t in
  let q = t.mo + (3 * t.nsoc) in
  let smu = sigma *. st.mu in
  let sc = 1.0 -. sigma in
  ignore q;
  (* One fused pass builds rhs5 = sigma mu e - lam o lam - Gamma,
     divides by lam and maps the result through W straight into the z
     RHS: orthant rows are all diagonal; each SOC block inlines the
     Jordan product/division and the W apply. *)
  let lam = st.lam and dsa = st.dsa and dza = st.dza in
  let dss = st.dst_s and bzv = st.bzv and rz = st.rz and wo = st.w_o in
  for i = 0 to t.mo - 1 do
    let l = Array.unsafe_get lam i in
    let r5 =
      smu -. (l *. l)
      -. (Array.unsafe_get dsa i *. Array.unsafe_get dza i)
    in
    let d = r5 /. l in
    Array.unsafe_set dss i d;
    Array.unsafe_set bzv i
      ((-.sc *. Array.unsafe_get rz i) -. (Array.unsafe_get wo i *. d))
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and wb = 3 * k in
    let l0 = lam.(r0) and l1 = lam.(r0 + 1) and l2 = lam.(r0 + 2) in
    let a0 = dsa.(r0) and a1 = dsa.(r0 + 1) and a2 = dsa.(r0 + 2) in
    let b0 = dza.(r0) and b1 = dza.(r0 + 1) and b2 = dza.(r0 + 2) in
    let r50 =
      smu -. ((l0 *. l0) +. (l1 *. l1) +. (l2 *. l2))
      -. ((a0 *. b0) +. (a1 *. b1) +. (a2 *. b2))
    and r51 = -.(2.0 *. l0 *. l1) -. ((a0 *. b1) +. (b0 *. a1))
    and r52 = -.(2.0 *. l0 *. l2) -. ((a0 *. b2) +. (b0 *. a2)) in
    let det = (l0 *. l0) -. (l1 *. l1) -. (l2 *. l2) in
    let u0 = ((l0 *. r50) -. (l1 *. r51) -. (l2 *. r52)) /. det in
    let u1 = (r51 -. (u0 *. l1)) /. l0
    and u2 = (r52 -. (u0 *. l2)) /. l0 in
    dss.(r0) <- u0;
    dss.(r0 + 1) <- u1;
    dss.(r0 + 2) <- u2;
    let wb0 = st.wbar.(wb)
    and wb1 = st.wbar.(wb + 1)
    and wb2 = st.wbar.(wb + 2) in
    let e = st.eta.(k) in
    let dd = (wb1 *. u1) +. (wb2 *. u2) in
    let f = u0 +. (dd /. (1.0 +. wb0)) in
    bzv.(r0) <- (-.sc *. rz.(r0)) -. (e *. ((wb0 *. u0) +. dd));
    bzv.(r0 + 1) <- (-.sc *. rz.(r0 + 1)) -. (e *. (u1 +. (wb1 *. f)));
    bzv.(r0 + 2) <- (-.sc *. rz.(r0 + 2)) -. (e *. (u2 +. (wb2 *. f)))
  done;
  g_tmulvec_w2inv st st.bzv ~dst:st.rhsn;
  Vec.axpy_into ~dst:st.rhsn (-.sc) st.rx;
  let btk =
    -.(st.tau *. st.kappa) +. smu -. (st.dtau_a *. st.dkappa_a)
  in
  recover_direction st ~r1s:(-.sc) ~bt:(-.sc *. st.rt) ~btk;
  max_step st

(* ------------------------------------------------------------------ *)
(* Initialization, termination                                        *)
(* ------------------------------------------------------------------ *)

(* Cold start: the canonical central point of each cone (internal
   form: all-ones orthant, (1, 0, 0) per SOC block) for both s and z,
   x = 0, tau = kappa = 1 — so mu = 1 exactly. *)
let init_cold st =
  let t = st.t in
  Vec.fill st.x 0.0;
  for i = 0 to t.mo - 1 do
    st.s.(i) <- 1.0;
    st.z.(i) <- 1.0
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) in
    st.s.(r0) <- 1.0; st.s.(r0 + 1) <- 0.0; st.s.(r0 + 2) <- 0.0;
    st.z.(r0) <- 1.0; st.z.(r0 + 1) <- 0.0; st.z.(r0 + 2) <- 0.0
  done;
  st.tau <- 1.0;
  st.kappa <- 1.0

(* Warm start from a primal seed: s = h - G x pushed strictly inside
   the cone, z on the central path at mu0 = warm_mu (per cone
   z = -(mu0/nu') grad F(s), normalized so s'z = mu0 per cone), and
   kappa = mu0 so the complementarity measure starts at mu0 < 1. *)
let init_warm st seed =
  let t = st.t in
  let mu0 = warm_mu in
  Vec.blit ~src:seed ~dst:st.x;
  g_mulvec t st.x ~dst:st.s;
  let q = t.mo + (3 * t.nsoc) in
  for j = 0 to q - 1 do
    st.s.(j) <- t.hi.(j) -. st.s.(j)
  done;
  let margin = 1e-3 in
  for i = 0 to t.mo - 1 do
    if st.s.(i) < margin then st.s.(i) <- margin
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) in
    let s1 = st.s.(r0 + 1) and s2 = st.s.(r0 + 2) in
    let nrm = sqrt ((s1 *. s1) +. (s2 *. s2)) in
    if st.s.(r0) < nrm +. margin then st.s.(r0) <- nrm +. margin
  done;
  for i = 0 to t.mo - 1 do
    st.z.(i) <- mu0 /. st.s.(i)
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) in
    let s0 = st.s.(r0) and s1 = st.s.(r0 + 1) and s2 = st.s.(r0 + 2) in
    let rho = (s0 *. s0) -. (s1 *. s1) -. (s2 *. s2) in
    st.z.(r0) <- mu0 *. s0 /. rho;
    st.z.(r0 + 1) <- -.mu0 *. s1 /. rho;
    st.z.(r0 + 2) <- -.mu0 *. s2 /. rho
  done;
  st.tau <- 1.0;
  st.kappa <- mu0

(* Rotate the internal slack/dual back to the caller's row order and
   tau-normalize everything into a solution record.  The record has
   the shape of the full instance: an orthant row outside the working
   set gets a zero dual and its true slack h - G x. *)
let extract_solution st ~iterations =
  let t = st.t and full = st.full in
  let q = n_rows t in
  let inv_tau = 1.0 /. st.tau in
  let x = Vec.scale inv_tau st.x in
  let s = Vec.zeros (n_rows full) and z = Vec.zeros (n_rows full) in
  if t != full then
    for i = 0 to full.mo - 1 do
      if st.sub_row.(i) < 0 then s.(full.orth_ext.(i)) <- -.row_value full i x
    done;
  for i = 0 to t.mo - 1 do
    let e = t.orth_ext.(i) in
    s.(e) <- st.s.(i) *. inv_tau;
    z.(e) <- st.z.(i) *. inv_tau
  done;
  for k = 0 to t.nsoc - 1 do
    let r0 = t.mo + (3 * k) and e = full.mo + (3 * k) in
    s.(e) <- inv_sqrt2 *. (st.s.(r0) +. st.s.(r0 + 1)) *. inv_tau;
    s.(e + 1) <- inv_sqrt2 *. (st.s.(r0) -. st.s.(r0 + 1)) *. inv_tau;
    s.(e + 2) <- st.s.(r0 + 2) *. inv_tau;
    z.(e) <- inv_sqrt2 *. (st.z.(r0) +. st.z.(r0 + 1)) *. inv_tau;
    z.(e + 1) <- inv_sqrt2 *. (st.z.(r0) -. st.z.(r0 + 1)) *. inv_tau;
    z.(e + 2) <- st.z.(r0 + 2) *. inv_tau
  done;
  let gap = ref 0.0 in
  for j = 0 to q - 1 do
    gap := !gap +. (st.s.(j) *. st.z.(j))
  done;
  {
    x;
    s;
    z;
    objective_value = Vec.dot t.c st.x *. inv_tau;
    gap = !gap *. inv_tau *. inv_tau;
    iterations;
  }

(* Convergence and certificate tests on the current residuals; also
   tracks the best iterate seen so far so that a destabilized endgame
   (the scalings blow up as mu -> 0) can fall back to it. *)
let check_termination ?(tol_scale = 1.0) st ~iterations =
  let t = st.t in
  let pres = st.norm_rz /. Float.max 1.0 st.norm_h /. st.tau in
  let dres =
    Vec.norm_inf st.rx /. (Float.max 1.0 st.norm_c *. st.tau)
  in
  let gap_abs = st.gap_sz /. (st.tau *. st.tau) in
  let pobj = Vec.dot t.c st.x /. st.tau in
  let relgap = gap_abs /. Float.max 1.0 (abs_float pobj) in
  (* Certificate residuals, computed before the merit: on an
     infeasible instance tau -> 0 and the optimality merit (all
     tau-normalized) stops improving long before the certificate is
     clean, so the stall guard must watch whichever of the three
     convergence channels is actually making progress. *)
  let hz = st.hz_dot in
  let pinf_res =
    if hz < 0.0 then begin
      (* G'z = rx - c tau *)
      Vec.blit ~src:st.rx ~dst:st.tmp_n;
      Vec.axpy_into ~dst:st.tmp_n (-.st.tau) t.c;
      Vec.norm_inf st.tmp_n /. (Float.max 1.0 st.norm_c *. -.hz)
    end
    else infinity
  in
  let cx = Vec.dot t.c st.x in
  let dinf_res =
    if cx < 0.0 then begin
      (* G x + s = rz + h tau *)
      let gxs = ref 0.0 in
      for j = 0 to n_rows t - 1 do
        gxs := Float.max !gxs (Float.abs (st.rz.(j) +. (st.tau *. t.hi.(j))))
      done;
      !gxs /. (Float.max 1.0 st.norm_h *. -.cx)
    end
    else infinity
  in
  let merit =
    Float.min
      (Float.max (Float.max pres dres) relgap)
      (Float.min pinf_res dinf_res)
  in
  if merit < st.best_merit then begin
    st.stall_count <- 0;
    st.best_merit <- merit;
    Vec.blit ~src:st.x ~dst:st.best_x;
    Vec.blit ~src:st.s ~dst:st.best_s;
    Vec.blit ~src:st.z ~dst:st.best_z;
    st.best_tau <- st.tau;
    st.best_kappa <- st.kappa
  end
  else if st.mu < 1e-6 then st.stall_count <- st.stall_count + 1;
  let feas_tol = tol_scale *. feas_tol in
  if
    pres <= feas_tol && dres <= feas_tol
    && (gap_abs <= tol_scale *. gap_abs_tol
       || relgap <= tol_scale *. gap_rel_tol)
  then Some (Optimal (extract_solution st ~iterations))
  else if pinf_res <= feas_tol then begin
    (* Primal-infeasibility certificate: z in K* with G'z ~ 0,
       normalized to h'z = -1. *)
    let sc = -1.0 /. hz in
    let sol = extract_solution st ~iterations in
    Some (Primal_infeasible { z = Vec.scale (sc *. st.tau) sol.z })
  end
  else if dinf_res <= feas_tol then
    (* Dual-infeasibility certificate (unbounded primal ray): x with
       G x + s ~ 0 (so -G x in K), normalized to c'x = -1. *)
    Some (Dual_infeasible { x = Vec.scale (-1.0 /. cx) st.x })
  else None

(* Failure exit: rewind to the best iterate seen, and accept it as
   optimal if it meets the tolerances relaxed by 100x (the endgame
   often overshoots into numerical noise one step after an acceptable
   iterate); otherwise report Unknown with that iterate. *)
let finish_unknown st ~iterations =
  if st.best_merit < infinity then begin
    Vec.blit ~src:st.best_x ~dst:st.x;
    Vec.blit ~src:st.best_s ~dst:st.s;
    Vec.blit ~src:st.best_z ~dst:st.z;
    st.tau <- st.best_tau;
    st.kappa <- st.best_kappa
  end;
  compute_residuals st;
  match check_termination ~tol_scale:100.0 st ~iterations with
  | Some status -> status
  | None -> Unknown (extract_solution st ~iterations)

(* ------------------------------------------------------------------ *)
(* Working set                                                        *)
(* ------------------------------------------------------------------ *)

let restrict ws t ~first ~last =
  if not (same_shape ws.full t) then
    invalid_arg "Conic.restrict: workspace shape mismatch";
  if first < 0 || last > t.mo then
    invalid_arg "Conic.restrict: range outside the orthant rows";
  Bytes.fill ws.in_set 0 t.mo '\001';
  if first >= last then begin
    ws.opt_lo <- 0;
    ws.opt_hi <- 0
  end
  else begin
    ws.opt_lo <- first;
    ws.opt_hi <- last;
    Bytes.fill ws.in_set first (last - first) '\000'
  end

(* The working-set update, in one pass over the optional rows outside
   the set: each whose value at [x] is not <= above — a NaN value
   included — joins it.  The thermal rows, almost all of the optional
   ones, have eight entries; those go through {!row_dot8}, whose
   straight-line body lets consecutive rows' add chains overlap, and
   every other length through {!row_value}.  Both sum in the same
   order, so each decision is the one-row loop's.  [x] has [t.n]
   entries (checked), so every row's stripe lies within it. *)
let admit ws t x ~above =
  if not (same_shape ws.full t) then
    invalid_arg "Conic.admit: workspace shape mismatch";
  if Vec.dim x <> t.n then invalid_arg "Conic.admit: point dimension mismatch";
  let gd = t.gdata and off = t.goff and lo = t.glo and hi = t.hi in
  let added = ref 0 in
  for i = ws.opt_lo to ws.opt_hi - 1 do
    if Bytes.get ws.in_set i = '\000' then begin
      let s = Array.unsafe_get off i in
      let violated =
        if Array.unsafe_get off (i + 1) - s = 8 then
          not
            (row_dot8 gd s x (Array.unsafe_get lo i) -. Array.unsafe_get hi i
            <= above)
        else not (row_value t i x <= above)
      in
      if violated then begin
        Bytes.set ws.in_set i '\001';
        incr added
      end
    end
  done;
  !added

(* ------------------------------------------------------------------ *)
(* Main loop                                                          *)
(* ------------------------------------------------------------------ *)

let take_step st alpha =
  let t = st.t in
  let q = t.mo + (3 * t.nsoc) in
  Vec.axpy_into ~dst:st.x alpha st.dx;
  let s = st.s and z = st.z and ds = st.ds and dz = st.dz in
  for j = 0 to q - 1 do
    Array.unsafe_set z j
      (Array.unsafe_get z j +. (alpha *. Array.unsafe_get dz j));
    Array.unsafe_set s j
      (Array.unsafe_get s j +. (alpha *. Array.unsafe_get ds j))
  done;
  st.tau <- st.tau +. (alpha *. st.dtau);
  st.kappa <- st.kappa +. (alpha *. st.dkappa)

let solve ?warm ?stats_into ?ws t =
  let st = match ws with Some st -> st | None -> make_workspace t in
  rebind_ws st t;
  let iterations = ref 0 in
  let predictor_steps = ref 0 and corrector_steps = ref 0 in
  let factorizations = ref 0 and jitter_retries = ref 0 in
  let warm_active = ref false in
  (match warm with
  | Some seed when Vec.dim seed = t.n ->
      init_warm st seed;
      warm_active := true
  | _ -> init_cold st);
  (* Warm-start rescue.  A warm start is a working-set round seeded
     from this cell's own optimum on fewer rows, and the rows admitted
     since can make that seed a poor one: a newly binding row can move
     the optimum far, and the small warm_mu leaves no centrality
     headroom to recover.  Rather than surfacing Unknown — which sends
     Model.solve to its retries, and a cell it cannot certify to
     Infeasible — restart the same solve from the cold central point
     the moment a warm iterate stalls (or degenerates: vanishing step,
     non-finite mu), and only then let the usual give-up paths apply.
     Iteration counters keep accumulating across the restart, so stats
     stay honest. *)
  let restart_cold () =
    init_cold st;
    st.best_merit <- infinity;
    st.stall_count <- 0;
    st.refine_passes <- 1;
    warm_active := false
  in

  let result = ref None in
  (try
     while !result = None do
       compute_residuals st;
       let give_up () =
         (* The relaxed re-check can still promote the best iterate to
            Optimal; a warm start is rescued only when it cannot. *)
         match finish_unknown st ~iterations:!iterations with
         | Unknown _ when !warm_active && !iterations < max_iter ->
             restart_cold ()
         | status -> result := Some status
       in
       if not (Float.is_finite st.mu) then give_up ()
       else
         match check_termination st ~iterations:!iterations with
         | Some status -> result := Some status
         | None ->
             if !iterations >= max_iter || st.stall_count >= 2 then
               give_up ()
             else begin
               incr iterations;
               (* Iterative refinement only once the scalings start
                  amplifying rounding (mu < 1e-4), and twice in the
                  endgame, for the tau-recovery and direction solves
                  alike. *)
               st.refine_passes <-
                 (if st.mu < 1e-7 then 2
                  else if st.mu < 1e-4 then 1
                  else 0);
               compute_scaling st;
               assemble_m st;
               let _jitter, tries =
                 Block_tridiag.factorize_jittered_into st.fact st.m_mat
               in
               incr factorizations;
               jitter_retries := !jitter_retries + tries - 1;
               prepare_tau_recovery st;
               let alpha_aff = predictor_step st in
               incr predictor_steps;
               let sigma =
                 let v = 1.0 -. alpha_aff in
                 let s3 = v *. v *. v in
                 if s3 < 0.0 then 0.0 else if s3 > 1.0 then 1.0 else s3
               in
               let alpha_max = corrector_step st ~sigma in
               incr corrector_steps;
               let alpha = Float.min (step_frac *. alpha_max) 1.0 in
               if alpha < 1e-10 || not (Float.is_finite alpha) then
                 give_up ()
               else take_step st alpha
             end
     done
   with Chol.Not_positive_definite _ ->
     result := Some (finish_unknown st ~iterations:!iterations));
  let status =
    match !result with Some s -> s | None -> assert false
  in
  (match stats_into with
  | None -> ()
  | Some acc ->
      let outcome =
        match status with
        | Optimal _ -> { stats_zero with optimal = 1 }
        | Primal_infeasible _ -> { stats_zero with primal_infeasible = 1 }
        | Dual_infeasible _ -> { stats_zero with dual_infeasible = 1 }
        | Unknown _ -> { stats_zero with unknown = 1 }
      in
      acc :=
        stats_add !acc
          {
            outcome with
            iterations = !iterations;
            predictor_steps = !predictor_steps;
            corrector_steps = !corrector_steps;
            factorizations = !factorizations;
            jitter_retries = !jitter_retries;
          });
  status

let pp_status fmt = function
  | Optimal s ->
      Format.fprintf fmt "optimal: obj = %.9g, gap = %.3g (%d iters)"
        s.objective_value s.gap s.iterations
  | Primal_infeasible _ -> Format.fprintf fmt "primal infeasible"
  | Dual_infeasible _ -> Format.fprintf fmt "dual infeasible"
  | Unknown s ->
      Format.fprintf fmt "unknown: obj = %.9g, gap = %.3g (%d iters)"
        s.objective_value s.gap s.iterations
