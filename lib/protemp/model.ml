open Linalg

type layout = {
  dim : int;
  n_cores : int;
  f_offset : int;
  n_f : int;
  p_offset : int;
  n_p : int;
  bounds_offset : int option;
}

(* The floor-only relaxation of a cell: minimize [sum_j w_j phat_j]
   subject to the power laws [fhat_j^2 <= phat_j], the boxes and the
   throughput floor [sum_j c_j fhat_j >= F], with no thermal row.  Its
   optimum is [fhat_j = min (f_box, lambda c_j / (2 w_j))],
   [phat_j = fhat_j^2], where the floor's multiplier [lambda] meets the
   floor exactly; core [j] saturates once [lambda] passes its
   breakpoint [2 w_j f_box / c_j].  Everything but [F] depends on the
   machine and the spec alone, so a {!prepared} computes it once:
   [order] lists the variables by ascending breakpoint, and [rest.(k)]
   is [sum c^2 / (2 w)] over [order.(k ..)] (0 at [k = n]), so a cell
   walks the breakpoints without re-summing. *)
type floor_only = {
  c : float array;  (* floor coefficient per frequency variable *)
  w : float array;  (* objective coefficient per power variable *)
  breakpoint : float array;
  order : int array;
  rest : float array;
  capacity : float;  (* [sum_j c_j f_box], the largest floor the boxes allow *)
}

(* The normal-equations matrix G' W^-2 G of the conic form couples
   variables only through shared constraint rows; in the models'
   (frequency, power, gradient-bound) variable order that coupling is
   block-tridiagonal, which is what the conic solver's `Blocks
   factorization exploits. *)
let conic_blocks layout =
  match layout.bounds_offset with
  | Some _ -> [| layout.n_f; layout.n_p; 2 |]
  | None -> [| layout.n_f; layout.n_p |]

let make_layout (spec : Spec.t) ~n_cores =
  let n_f = match spec.Spec.variant with Spec.Uniform -> 1 | Spec.Variable -> n_cores in
  let n_p = n_f in
  let base = 2 * n_f in
  let with_grad = spec.Spec.gradient <> None in
  {
    dim = (if with_grad then base + 2 else base);
    n_cores;
    f_offset = 0;
    n_f;
    p_offset = n_f;
    n_p;
    bounds_offset = (if with_grad then Some base else None);
  }

(* Row layout.  Eq. 3 as written — the order of [raw.dual] — has, per
   frequency variable [j], its power law at [5 j] and its four box rows
   ([fhat >= 0], [fhat <= f_box], [phat >= 0], [phat <= p_box]) after
   it; then the throughput floor at [5 n_f] (a frontier has none); then
   the thermal and gradient rows that take part.  The orthant rows of
   the conic instance that take part keep that order, and each power
   law moves to a cone block after them, so a box row of variable [j]
   is the [(i - j - 1)]th row taking part of constraint [i], and every
   row from the floor on is [n_f] rows earlier than its constraint. *)
let per_variable = 5
let power_law_index j = per_variable * j
let upper_f_box_index j = power_law_index j + 2
let floor_index layout = per_variable * layout.n_f
let first_thermal_index layout = floor_index layout + 1

(* Where constraint [i], which is not a power law, comes among the
   orthant rows that take part. *)
let orthant_row layout i =
  if i >= floor_index layout then i - layout.n_f
  else i - (i / per_variable) - 1

(* Affine coefficient of normalized core power j on the temperature of
   node [node] at step [k] is  S_k[node, core_j] * b[core_j] * pmax,
   where S_k = sum_{l<k} A^l.  The core columns of S_k at the stride
   points depend only on the machine and the window: they are
   {!Sim.Machine.window_response}, which a machine's row sets are built
   from.
   [row_coefficients] writes the coefficients of the normalized core
   powers on one node at one stride point into [q] (one per power
   variable), whose [sums] entries start at [off]. *)
let row_coefficients ~(variant : Spec.variant) ~sums ~off ~b ~pmax
    ~core_nodes q =
  match variant with
  | Spec.Variable ->
      for j = 0 to Array.length core_nodes - 1 do
        q.(j) <- sums.(off + j) *. b.(core_nodes.(j)) *. pmax.(j)
      done
  | Spec.Uniform ->
      let acc = ref 0.0 in
      for j = 0 to Array.length core_nodes - 1 do
        acc := !acc +. (sums.(off + j) *. b.(core_nodes.(j)))
      done;
      q.(0) <- !acc *. pmax.(0)

(* Upper ends of the normalized boxes [0 <= fhat <= f_box] and
   [0 <= phat <= p_box].  They are relaxed a fraction of a percent so
   that a demand of exactly fmax keeps a strict interior for the
   interior-point method; extraction clamps back to fmax, which only
   lowers power, so the thermal guarantee (computed at the relaxed
   powers) still holds.  The thermal-row filter below reads [p_box]
   too. *)
let f_box = 1.002
let p_box = 1.005

(* A thermal row [base + q.phat <= tmax] whose largest value over the
   power box, [base + sum_j max(q_j, 0) * p_box], stays below
   [tmax * (1 - implied_margin)] holds at every point the box rows
   admit, so it is implied and never emitted.  The relative margin
   keeps every row within rounding (or within the solver's tolerance
   on the box rows) of binding. *)
let implied_margin = 1e-6

let floor_only_of layout ~total_f_coeffs ~objective_coeffs =
  let n = layout.n_f in
  let c = Array.init n (fun j -> -.total_f_coeffs.(layout.f_offset + j)) in
  let w = Array.init n (fun j -> objective_coeffs.(layout.p_offset + j)) in
  let breakpoint = Array.init n (fun j -> 2.0 *. w.(j) *. f_box /. c.(j)) in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare breakpoint.(a) breakpoint.(b))
    order;
  let rest = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    let j = order.(k) in
    rest.(k) <- rest.(k + 1) +. (c.(j) *. c.(j) /. (2.0 *. w.(j)))
  done;
  let capacity = ref 0.0 in
  Array.iter (fun cj -> capacity := !capacity +. (cj *. f_box)) c;
  { c; w; breakpoint; order; rest; capacity = !capacity }

(* The stripe the conic instance stores of a row whose entry [k] is
   [row.(k)] in column [first + k] and which is zero outside them: the
   entries from its first to its last nonzero one, and the column it
   starts at. *)
let stripe ~first row =
  let n = Array.length row in
  let lo = ref 0 in
  (* Structural-zero detection at build time wants exact equality. *)
  while !lo < n && row.(!lo) = 0.0 do (* lint: float-equality structural zero *)
    incr lo
  done;
  if !lo = n then (0, [||])
  else begin
    let hi = ref (n - 1) in
    while row.(!hi) = 0.0 do (* lint: float-equality structural zero *)
      decr hi
    done;
    (first + !lo, Array.sub row !lo (!hi - !lo + 1))
  end

(* Rows packed back to back: row [i] is [data.(off.(i) ..
   off.(i + 1) - 1)]. *)
let pack_data rows =
  let n = Array.length rows in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i row -> off.(i + 1) <- off.(i) + Array.length row) rows;
  let data = Array.make off.(n) 0.0 in
  Array.iteri
    (fun i row -> Array.blit row 0 data off.(i) (Array.length row))
    rows;
  (off, data)

(* Stripes packed in the layout {!Convex.Conic.make} takes: row [i]'s
   entries are [data.(off.(i) ..)], the first in column [lo.(i)]. *)
type packed = { lo : int array; off : int array; data : float array }

let pack stripes =
  let off, data = pack_data (Array.map snd stripes) in
  { lo = Array.map fst stripes; off; data }

(* Row [o]'s value [G_o x], summed left to right from 0 as
   {!Convex.Conic.holds} sums it, so it has the same bits.  Inlined,
   so the float is never boxed. *)
let[@inline] row_sum g o x =
  let s = ref 0.0 in
  for e = g.off.(o) to g.off.(o + 1) - 1 do
    s := !s +. (g.data.(e) *. x.(g.lo.(o) + e - g.off.(o)))
  done;
  !s

(* What a model of [spec] on [machine] needs of both, checked once
   per prepare and per column. *)
let validate ~machine ~(spec : Spec.t) =
  Spec.validate spec;
  (* Per-core normalization: variable j is stated in units of its own
     core's ceiling, [fhat_j = f_j / core_fmax.(j)] and
     [phat_j = p_j / core_pmax.(j)], so the box and power-law rows
     keep O(1) coefficients on any platform.  The quadratic surrogate
     [fhat^2 <= phat] over-states the true power [fhat^e] on [0, 1]
     only when [e >= 2]; a smaller exponent would silently void the
     thermal guarantee, so it is rejected here. *)
  Array.iter
    (fun e ->
      if e < 2.0 then
        invalid_arg
          "Model: power exponent below 2 (the quadratic surrogate would \
           under-estimate power)")
    machine.Sim.Machine.core_exponent;
  match spec.Spec.variant with
  | Spec.Uniform
    when not (Sim.Platform.single_class machine.Sim.Machine.platform) ->
      invalid_arg "Model: the uniform variant needs a single-class platform"
  | Spec.Uniform | Spec.Variable -> ()

(* Throughput direction: sum over cores of f, in units of the chip
   reference frequency — coefficient [core_fmax.(j) / fref] per
   normalized variable, which is exactly -1.0 on a single-class
   platform ([x /. x = 1.0] for finite positive x).  In the uniform
   variant the single f counts n_cores times.  The floor row
   [total_f_coeffs . fhat + F <= 0] gets its constant per [ftarget]
   in {!instantiate}. *)
let total_f_coeffs ~machine ~(spec : Spec.t) layout =
  let core_fmax = machine.Sim.Machine.core_fmax in
  let fref = machine.Sim.Machine.fmax in
  let q = Vec.zeros layout.dim in
  (match spec.Spec.variant with
  | Spec.Variable ->
      for j = 0 to layout.n_f - 1 do
        q.(layout.f_offset + j) <- -.(core_fmax.(j) /. fref)
      done
  | Spec.Uniform -> q.(layout.f_offset) <- -.float_of_int layout.n_cores);
  q

(* Objective of the power problem: total power in units of the largest
   per-core pmax — coefficient [pmax.(j) / pref] per normalized power,
   exactly 1.0 on a single-class platform — plus the weighted spread
   (Eq. 3/5). *)
let objective_coeffs ~machine ~(spec : Spec.t) layout =
  let pmax = machine.Sim.Machine.core_pmax in
  let pref = Array.fold_left Float.max 0.0 pmax in
  let q = Vec.zeros layout.dim in
  for j = 0 to layout.n_p - 1 do
    q.(layout.p_offset + j) <-
      (match spec.Spec.variant with
      | Spec.Variable -> pmax.(j) /. pref
      | Spec.Uniform -> float_of_int layout.n_cores)
  done;
  (match (layout.bounds_offset, spec.Spec.gradient) with
  | Some off, Some gr ->
      q.(off) <- gr.Spec.weight;
      q.(off + 1) <- -.gr.Spec.weight
  | None, _ | _, None -> ());
  q

(* The window's thermal steps and the variables' layout of a model of
   [spec] on [machine], which are checked first. *)
let window ~machine ~(spec : Spec.t) =
  validate ~machine ~spec;
  let steps = Sim.Machine.window_steps machine ~period:spec.Spec.dfs_period in
  if steps < 1 then invalid_arg "Model.build: window below one thermal step";
  (steps, make_layout spec ~n_cores:machine.Sim.Machine.n_cores)

(* Eq. 3 for one machine, window, stride, variant, [tmax] and gradient
   term: everything in it but the constants of its thermal and gradient
   rows and the floor's, which depend on the start and on [ftarget].
   Thermal row [idx = r * n_nodes + node] is the one of [node] at
   stride point [ks.(r)], with coefficients [q] on the normalized
   powers:
   - [threshold.(idx)] is [tmax (1 - implied_margin)] less
     [sum_j max(q_j, 0) p_box] (summed in column order): the row is
     implied by the box unless its base reaches it;
   - [unit_response.(idx)] and [fixed_response.(idx)] are [a_k] and
     [c_k] of its node: the base of a uniform start [tstart] is
     [tstart a_k + c_k] (see {!affine_bases}).
   [cell] is the instance [h - G x in K] in the row layout above, with
   every thermal row, implied or not: the box rows, the floor, thermal
   row [idx] at orthant row [first_thermal + idx] (its coefficients
   [(1/tmax) q], cut by {!stripe}), the gradient rows, the gradient
   bounds, then one rotated-quadratic block per power law.  The
   gradient rows come in emission order, from the last stride point
   and the last core node back: per (stride point, core node) the [u]
   row [(1/tmax) q - u], then the [l] row [l - (1/tmax) q], each cut by
   {!stripe} from a dense row (so a zero coefficient inside an [l]
   row's stripe is [(-1/tmax) 0 = -0.0]); pair [k]'s constants read the
   base of thermal row [gradient_base.(k)].  [frontier] shares [cell]'s
   [G] and constants and maximizes the total frequency ([frontier_c])
   instead; its floor row never takes part.  [g] and [h0] are the two
   instances' packed [G] and constants (0 on every thermal, gradient
   and floor row, which a start and a cell write).  [stepper] steps the
   base of a start profile.  [nonnegative] is whether every stored
   thermal coefficient and every [a_k] is >= 0 (a NaN is not), which
   makes a row's value at a column's point monotone in the point's
   powers and in a uniform start (see {!columns}).  [floor_only] is
   the cell's floor-only relaxation: [None] with a gradient term,
   whose spread term couples the objective to the thermal rows. *)
type thermal_rows = {
  key_steps : int;
  key_stride : int;
  key_variant : Spec.variant;
  key_tmax : float;
  key_gradient : Spec.gradient option;
  ks : int array;
  stepper : Thermal.Rc_model.stepper;
  threshold : float array;
  unit_response : float array;
  fixed_response : float array;
  gradient_base : int array;
  nonnegative : bool;
  first_thermal : int;
  first_bound : int;
  n_orthant : int;
  g : packed;
  h0 : float array;
  cell : Convex.Conic.t;
  frontier : Convex.Conic.t;
  frontier_c : Vec.t;
  floor_only : floor_only option;
}

type Sim.Machine.slot += Thermal_rows of thermal_rows

(* Step [t0] over the window on [stepper] under the constant [power],
   in the two vectors [a] (which holds [t0] on entry) and [b], and
   record the temperatures at each stride point [ks.(r)] in
   [dst.(off + r * n_nodes ..)]. *)
let stride_points stepper ~power ~ks ~steps ~n_nodes ~a ~b ~dst ~off =
  let r = ref 0 in
  for k = 1 to steps do
    let src = if k land 1 = 1 then a else b in
    let next = if k land 1 = 1 then b else a in
    Thermal.Rc_model.stepper_step_into stepper src power ~dst:next;
    (* The last stride point is [steps], so [r] runs past the end of
       [ks] only as the loop ends. *)
    if ks.(!r) = k then begin
      Array.blit next 0 dst (off + (!r * n_nodes)) n_nodes;
      incr r
    end
  done

(* The rows of [layout] (which fixes the variant and the gradient
   switch), each with the entries and the stripe it had when a prepare
   wrote it from a dense row: a zero power coefficient [q_j] scales to
   a zero of [q_j]'s sign times the scale's, and the stripes trim zeros
   of either sign from both ends.  [q] holds the [n_p] power
   coefficients of one row; a row's other columns are zero, except the
   gradient bounds' [u] and [l], which follow the power columns.

   A uniform start is [tstart 1], and the window holds the power, so
   its base at step [k] is [A^k (tstart 1) + sum_{l<k} A^l d] with [d]
   the fixed power's injection plus the ambient drive:
   [tstart a_k + c_k], with [a_k = A^k 1] (the recurrence with no
   drive and no power, from ones) and [c_k] the base from zero (the
   machine's stepper under its fixed power, from zeros). *)
let compute_thermal_rows machine ~(spec : Spec.t) ~layout ~steps =
  let stride = spec.Spec.constraint_stride and tmax = spec.Spec.tmax in
  let response = Sim.Machine.window_response machine ~steps ~stride in
  let ks = response.Sim.Machine.ks and sums = response.Sim.Machine.sums in
  let n_nodes = machine.Sim.Machine.n_nodes in
  let n_cores = machine.Sim.Machine.n_cores in
  let core_nodes = machine.Sim.Machine.core_nodes in
  let thermal_model = machine.Sim.Machine.thermal in
  let b = thermal_model.Thermal.Rc_model.injection in
  let pmax = machine.Sim.Machine.core_pmax in
  let n_p = layout.n_p and first = layout.p_offset in
  let q = Vec.zeros n_p in
  let is_core = Array.make n_nodes false in
  Array.iter (fun cn -> is_core.(cn) <- true) core_nodes;
  let n_rows = Array.length ks * n_nodes in
  let limit = tmax *. (1.0 -. implied_margin) in
  let threshold = Array.make n_rows 0.0 in
  let thermal = Array.make n_rows (0, [||]) in
  let gradient = ref [] and gradient_base = ref [] in
  for r = 0 to Array.length ks - 1 do
    for node = 0 to n_nodes - 1 do
      let idx = (r * n_nodes) + node in
      row_coefficients ~variant:spec.Spec.variant ~sums ~off:(idx * n_cores)
        ~b ~pmax ~core_nodes q;
      let lift = ref 0.0 in
      for j = 0 to n_p - 1 do
        if q.(j) > 0.0 then lift := !lift +. (q.(j) *. p_box)
      done;
      threshold.(idx) <- limit -. !lift;
      (* base + q.p <= tmax, stated in units of tmax so every
         constraint family has O(1) coefficients (the interior-point
         normal equations are ill-conditioned otherwise). *)
      let scaled a j = a *. q.(j) in
      thermal.(idx) <-
        stripe ~first (Array.init n_p (scaled (1.0 /. tmax)));
      (* Gradient variant: t_{k,i}/tmax in [l, u] on every core node. *)
      match layout.bounds_offset with
      | Some u when is_core.(node) ->
          assert (u = first + n_p);
          (* q.p/tmax + base/tmax - u <= 0 *)
          let u_row =
            Array.init (n_p + 1) (fun j ->
                if j < n_p then scaled (1.0 /. tmax) j else -1.0)
          in
          (* l - q.p/tmax - base/tmax <= 0; its [u] entry is
             [(-1/tmax) 0 = -0.0]. *)
          let l_row =
            Array.init (n_p + 2) (fun j ->
                if j < n_p then scaled (-1.0 /. tmax) j
                else if j = n_p then -0.0
                else 1.0)
          in
          gradient :=
            stripe ~first u_row :: stripe ~first l_row :: !gradient;
          gradient_base := idx :: !gradient_base
      | Some _ | None -> ()
    done
  done;
  (* Both lists run from the last pair back: the emission order. *)
  let gradient = Array.of_list !gradient in
  let stepper = Thermal.Rc_model.compile_stepper thermal_model in
  let response_of stepper ~power ~t0 =
    let dst = Array.make n_rows 0.0 in
    stride_points stepper ~power ~ks ~steps ~n_nodes ~a:(Vec.create n_nodes t0)
      ~b:(Vec.zeros n_nodes) ~dst ~off:0;
    dst
  in
  let homogeneous =
    Thermal.Rc_model.compile_stepper
      { thermal_model with Thermal.Rc_model.drive = Vec.zeros n_nodes }
  in
  (* The rows with no start-dependent constant, each [(lo, coeffs, h)]
     with [-r] of its [q'x + r <= 0] form as [h]. *)
  let box =
    Array.init (4 * layout.n_f) (fun i ->
        let f = layout.f_offset + (i / 4) and p = layout.p_offset + (i / 4) in
        match i mod 4 with
        | 0 -> (f, [| -1.0 |], 0.0)
        | 1 -> (f, [| 1.0 |], f_box)
        | 2 -> (p, [| -1.0 |], 0.0)
        | _ -> (p, [| 1.0 |], p_box))
  in
  let total_f = total_f_coeffs ~machine ~spec layout in
  let floor_lo, floor_row = stripe ~first:0 total_f in
  (* Gradient variant: after its rows, bounds keeping the spread term
     bounded, and the optional hard cap. *)
  let bound_rows =
    match (layout.bounds_offset, spec.Spec.gradient) with
    | Some off, Some gr ->
        let u = off and l = off + 1 in
        (* 0 <= l, u <= 2, l <= u *)
        [
          (l, [| -1.0 |], -0.0);
          (u, [| 1.0 |], 2.0);
          (u, [| -1.0; 1.0 |], -0.0);
        ]
        @ (match gr.Spec.cap with
          | Some cap -> [ (u, [| 1.0; -1.0 |], cap /. tmax) ]
          | None -> [])
    | None, None -> []
    | Some _, None | None, Some _ -> assert false
  in
  (* Power laws [fhat^2 <= phat]: the rotated-quadratic block
     [(u, v, w) = (phat, 1/2, fhat)], written rotated by T. *)
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  let power_laws =
    Array.init (3 * layout.n_f) (fun i ->
        let p = layout.p_offset + (i / 3) in
        match i mod 3 with
        | 0 -> (p, [| -.inv_sqrt2 |], inv_sqrt2 *. 0.5)
        | 1 -> (p, [| -.inv_sqrt2 |], inv_sqrt2 *. -0.5)
        | _ -> (layout.f_offset + (i / 3), [| -1.0 |], 0.0))
  in
  let unset (lo, row) = (lo, row, 0.0) in
  let all =
    Array.concat
      [
        box;
        [| (floor_lo, floor_row, 0.0) |];
        Array.map unset thermal;
        Array.map unset gradient;
        Array.of_list bound_rows;
        power_laws;
      ]
  in
  let g = pack (Array.map (fun (lo, row, _) -> (lo, row)) all) in
  let h0 = Array.map (fun (_, _, h) -> h) all in
  let n_orthant = Array.length all - Array.length power_laws in
  let instance c =
    Convex.Conic.make ~c ~n_orthant ~glo:g.lo ~goff:g.off ~gdata:g.data ~h:h0
  in
  let objective = objective_coeffs ~machine ~spec layout in
  let unit_response =
    response_of homogeneous ~power:(Vec.zeros n_nodes) ~t0:1.0
  in
  Thermal_rows
    {
      key_steps = steps;
      key_stride = stride;
      key_variant = spec.Spec.variant;
      key_tmax = tmax;
      key_gradient = spec.Spec.gradient;
      ks;
      stepper;
      threshold;
      unit_response;
      fixed_response =
        response_of stepper ~power:machine.Sim.Machine.fixed_power ~t0:0.0;
      gradient_base = Array.of_list !gradient_base;
      nonnegative =
        Array.for_all (fun a -> a >= 0.0) unit_response
        && Array.for_all
             (fun (_, row) -> Array.for_all (fun q -> q >= 0.0) row)
             thermal;
      first_thermal = Array.length box + 1;
      first_bound = n_orthant - List.length bound_rows;
      n_orthant;
      g;
      h0;
      cell = instance objective;
      frontier = instance total_f;
      frontier_c = total_f;
      floor_only =
        (match spec.Spec.gradient with
        | None ->
            Some
              (floor_only_of layout ~total_f_coeffs:total_f
                 ~objective_coeffs:objective)
        | Some _ -> None);
    }

(* The machine's rows for [spec], computed on the first request and
   kept in the machine's cache.  The key is everything the rows read
   besides the machine: the window, the stride, the variant, [tmax]
   and the gradient term. *)
let thermal_rows machine ~(spec : Spec.t) ~layout ~steps =
  let same_gradient (a : Spec.gradient) (b : Spec.gradient) =
    Float.equal a.Spec.weight b.Spec.weight
    && Option.equal Float.equal a.Spec.cap b.Spec.cap
  in
  Sim.Machine.cached machine
    ~find:(function
      | Thermal_rows rows
        when rows.key_steps = steps
             && rows.key_stride = spec.Spec.constraint_stride
             && rows.key_variant = spec.Spec.variant
             && Float.equal rows.key_tmax spec.Spec.tmax
             && Option.equal same_gradient rows.key_gradient
                  spec.Spec.gradient ->
          Some rows
      | _ -> None)
    ~compute:(fun () -> compute_thermal_rows machine ~spec ~layout ~steps)

(* A start's arithmetic on thermal row [idx], shared by its writers
   below and the closed-row pass: the row's base from the uniform
   start [tstart], [tstart a_k + c_k]; whether the power box implies
   the row at [base] (a NaN base is not implied); its constant at
   [base], [-((base - tmax)/tmax)]. *)
let[@inline] affine_base rows ~tstart idx =
  (tstart *. rows.unit_response.(idx)) +. rows.fixed_response.(idx)

let[@inline] implied rows idx base = base < rows.threshold.(idx)
let[@inline] thermal_constant ~tmax base = -.((base -. tmax) /. tmax)

(* Every thermal row's base from the uniform start [tstart] into [h]
   at the row's constant. *)
let affine_bases rows ~tstart ~h =
  for idx = 0 to Array.length rows.unit_response - 1 do
    h.(rows.first_thermal + idx) <- affine_base rows ~tstart idx
  done

(* A start's constants and rows from its bases, which [h] holds at the
   thermal rows' constants: into [h], every gradient pair's constants
   [-(base/tmax)] and [base/tmax], then every thermal row's
   [-((base - tmax)/tmax)] in place of its base; into [part], the
   orthant rows that take part, ascending: the first [fixed] (the box
   rows, then the floor unless the start is a frontier's), the thermal
   rows the box does not imply (a NaN base is kept), then every
   gradient row and bound.
   Returns how many rows take part. *)
let write_constants rows ~fixed ~tmax ~h ~part =
  let first = rows.first_thermal in
  let grad = first + Array.length rows.threshold in
  for pair = 0 to Array.length rows.gradient_base - 1 do
    let base = h.(first + rows.gradient_base.(pair)) in
    h.(grad + (2 * pair)) <- -.(base /. tmax);
    h.(grad + (2 * pair) + 1) <- base /. tmax
  done;
  for i = 0 to fixed - 1 do
    part.(i) <- i
  done;
  let n = ref fixed in
  for idx = 0 to Array.length rows.threshold - 1 do
    let base = h.(first + idx) in
    h.(first + idx) <- thermal_constant ~tmax base;
    if not (implied rows idx base) then begin
      part.(!n) <- first + idx;
      incr n
    end
  done;
  for i = grad to rows.n_orthant - 1 do
    part.(!n) <- i;
    incr n
  done;
  !n

(* Everything in the models of Eqs. 3-5 except the throughput floor's
   constant depends only on [(machine, spec, t0)], and of that only the
   constants: [G] and [c] are the machine's {!thermal_rows}' instance.
   [prepared] is a start: its instance [p_conic] holds its constants,
   with a floor constant of 0, and its rows: the orthant rows that take
   part, with the kept thermal rows and the gradient rows as the
   candidates of a working set (a frontier, solved on every row it
   keeps, has none).  {!instantiate} then re-targets the floor row per
   [ftarget].  Nothing is mutated after the start, so cells — and
   domains — may share it freely. *)
type prepared = {
  p_layout : layout;
  p_spec : Spec.t;
  p_machine : Sim.Machine.t;
  p_t0 : Vec.t;
  p_tstart : float option;  (* a cell's uniform start, for the ladder *)
  p_steps : int;
  p_frontier : bool;
  p_rows : thermal_rows;
  p_conic : Convex.Conic.t;  (* the rows' instance with [p_h] *)
  p_h : float array;
}

type built = {
  layout : layout;
  spec : Spec.t;
  initial_temperatures : Vec.t;
  ftarget : float;
  steps : int;
  machine : Sim.Machine.t;
  conic : Convex.Conic.t Lazy.t;
  context : prepared;
}

(* A start from [t0]: its bases, affine in a uniform start and stepped
   from a profile, then {!write_constants}.  The CSR stepper sums each
   node's products in the dense step's order and skips only exact
   zeros, so on a finite [t0] a profile's base is
   [Transient.simulate]'s, bit for bit.  A [frontier] start (which
   maximizes the total frequency instead of minimizing power) leaves
   the floor out. *)
let prepare_internal ~machine ~(spec : Spec.t) ~start ~frontier =
  let steps, layout = window ~machine ~spec in
  let n_nodes = machine.Sim.Machine.n_nodes in
  let t0 =
    match start with
    | `Uniform tstart -> Vec.create n_nodes tstart
    | `Profile t0 -> t0
  in
  if Vec.dim t0 <> n_nodes then
    invalid_arg "Model.build: initial temperature profile length mismatch";
  if not (Array.for_all Float.is_finite t0) then
    invalid_arg "Model.build: non-finite start temperature";
  let rows = thermal_rows machine ~spec ~layout ~steps in
  let h = Array.copy rows.h0 and part = Array.make rows.n_orthant 0 in
  (match start with
  | `Uniform tstart -> affine_bases rows ~tstart ~h
  | `Profile t0 ->
      stride_points rows.stepper ~power:machine.Sim.Machine.fixed_power
        ~ks:rows.ks ~steps ~n_nodes ~a:(Vec.copy t0) ~b:(Vec.zeros n_nodes)
        ~dst:h ~off:rows.first_thermal);
  let fixed = if frontier then rows.first_thermal - 1 else rows.first_thermal in
  let n = write_constants rows ~fixed ~tmax:spec.Spec.tmax ~h ~part in
  let last = if frontier then fixed else n - (rows.n_orthant - rows.first_bound) in
  {
    p_layout = layout;
    p_spec = spec;
    p_machine = machine;
    p_t0 = Vec.copy t0;
    p_tstart =
      (match start with
      | `Uniform tstart when not frontier -> Some tstart
      | `Uniform _ | `Profile _ -> None);
    p_steps = steps;
    p_frontier = frontier;
    p_rows = rows;
    p_conic =
      Convex.Conic.with_rows
        (if frontier then rows.frontier else rows.cell)
        h ~rows:part ~n ~first:fixed ~last;
    p_h = h;
  }

let prepare ~machine ~spec ~tstart =
  prepare_internal ~machine ~spec ~start:(`Uniform tstart) ~frontier:false

let prepare_with_profile ~machine ~spec ~t0 =
  prepare_internal ~machine ~spec ~start:(`Profile t0) ~frontier:false

(* The throughput floor [sum_j c_j fhat_j >= F] has the constant
   [F = n_cores ftarget / fmax].  Inlined, so that {!tangent_refutes}
   keeps it unboxed. *)
let[@inline] floor_constant ~layout ~machine ftarget =
  float_of_int layout.n_cores *. (ftarget /. machine.Sim.Machine.fmax)

let built_of p ~ftarget conic =
  {
    layout = p.p_layout;
    spec = p.p_spec;
    initial_temperatures = p.p_t0;
    ftarget;
    steps = p.p_steps;
    machine = p.p_machine;
    conic;
    context = p;
  }

(* Written so that a NaN target fails too. *)
let check_ftarget ~machine ftarget =
  if not (ftarget >= 0.0 && ftarget <= machine.Sim.Machine.fmax) then
    invalid_arg "Model.build: ftarget outside [0, fmax]"

let instantiate p ~ftarget =
  check_ftarget ~machine:p.p_machine ftarget;
  let floor_const =
    floor_constant ~layout:p.p_layout ~machine:p.p_machine ftarget
  in
  built_of p ~ftarget
    (lazy
      (Convex.Conic.with_constant p.p_conic
         ~row:(orthant_row p.p_layout (floor_index p.p_layout))
         (-.floor_const)))

(* The frontier problem: maximize the total frequency under the same
   envelope, with no floor. *)
let frontier ~machine ~spec ~start =
  let p = prepare_internal ~machine ~spec ~start ~frontier:true in
  built_of p ~ftarget:0.0 (Lazy.from_val p.p_conic)

let build ~machine ~spec ~tstart ~ftarget =
  instantiate (prepare ~machine ~spec ~tstart) ~ftarget

let build_frontier ~machine ~spec ~tstart =
  frontier ~machine ~spec ~start:(`Uniform tstart)

let build_with_profile ~machine ~spec ~t0 ~ftarget =
  instantiate (prepare_with_profile ~machine ~spec ~t0) ~ftarget

type solution = {
  frequencies : Vec.t;
  core_powers : Vec.t;
  total_power : float;
  gradient_spread : float option;
  raw : Convex.Solve.solution;
  settled_by : [ `Closed_form | `Active_set | `Interior_point ];
}

type outcome = Feasible of solution | Infeasible

(* The per-core values of the normalized variables of [x] from
   [offset], clamped to [0, 1] (a uniform solution carries one value
   for all cores) and scaled by [scale], in one pass, multiply order
   as [Vec.scale]'s [a *. x_i] so a single-class platform is
   bit-identical. *)
let per_core ~layout ~(variant : Spec.variant) ~scale x ~offset =
  Vec.init layout.n_cores (fun j ->
      let v = match variant with Spec.Variable -> j | Spec.Uniform -> 0 in
      scale.(j) *. Float.min 1.0 (Float.max 0.0 x.(offset + v)))

(* The frequencies a solution [x] serves, in Hz. *)
let served_frequencies ~layout ~variant ~machine x =
  per_core ~layout ~variant ~scale:machine.Sim.Machine.core_fmax x
    ~offset:layout.f_offset

let solution_of_x built ~settled_by (raw : Convex.Solve.solution) =
  let layout = built.layout and variant = built.spec.Spec.variant in
  let x = raw.Convex.Solve.x in
  (* The reported powers are the certified (model) powers: for an
     exponent above 2 the true power is lower, so they remain a safe
     over-estimate. *)
  let frequencies =
    served_frequencies ~layout ~variant ~machine:built.machine x
  in
  let core_powers =
    per_core ~layout ~variant ~scale:built.machine.Sim.Machine.core_pmax x
      ~offset:layout.p_offset
  in
  let gradient_spread =
    Option.map
      (fun off -> (x.(off) -. x.(off + 1)) *. built.spec.Spec.tmax)
      layout.bounds_offset
  in
  {
    frequencies;
    core_powers;
    total_power = Vec.sum core_powers;
    gradient_spread;
    raw;
    settled_by;
  }

(* Eq. 3's constraints on the rows of [p] that take part: the order
   of [raw.dual]. *)
let constraint_count p = Convex.Conic.n_part p.p_conic + p.p_layout.n_f

(* The cone dual [z] of a solve on [p]'s rows in constraint order:
   the orthant dual of an affine row, the [u] dual of a power law's
   block. *)
let raw_dual p (z : Vec.t) =
  let layout = p.p_layout and mo = Convex.Conic.n_part p.p_conic in
  Vec.init (constraint_count p) (fun i ->
      if i < floor_index layout && i mod per_variable = 0 then
        z.(mo + (3 * (i / per_variable)))
      else z.(orthant_row layout i))

(* [s] has one entry per row that takes part, and the dual is zero on
   every row a working set left out. *)
let raw_of_conic built (s : Convex.Conic.solution) =
  {
    Convex.Solve.x = s.Convex.Conic.x;
    objective_value = s.Convex.Conic.objective_value;
    dual = raw_dual built.context s.Convex.Conic.z;
    gap = s.Convex.Conic.gap;
    iterations = s.Convex.Conic.iterations;
  }

(* An optimum is served; every other status is reported infeasible.  A
   primal-infeasibility certificate proves it.  A dual-infeasibility
   certificate cannot occur for a well-posed instance (the objective is
   bounded on the box), and [Unknown] proves nothing either way, so
   both take the thermally safe verdict: the controller then falls
   back to a lower column. *)
let outcome_of built (status : Convex.Conic.status) =
  match status with
  | Convex.Conic.Optimal s ->
      Feasible
        (solution_of_x built ~settled_by:`Interior_point
           (raw_of_conic built s))
  | Convex.Conic.Primal_infeasible _ | Convex.Conic.Dual_infeasible _
  | Convex.Conic.Unknown _ ->
      Infeasible

(* A workspace for every instance of [p]'s machine and spec,
   factorizing under {!conic_blocks}. *)
let workspace p =
  Convex.Conic.make_workspace ~kkt:(`Blocks (conic_blocks p.p_layout)) p.p_conic

(* One solve of [t] on every row it names. *)
let solve_on_every_row ?stats_into ~ws t =
  let t = Convex.Conic.without_candidates t in
  Convex.Conic.restrict ws t;
  Convex.Conic.solve ?stats_into ~ws t

let solve_frontier built =
  outcome_of built
    (solve_on_every_row ~ws:(workspace built.context) (Lazy.force built.conic))

(* Frontier tangents.  The frontier program at a start [t0] is
   [minimize c'x subject to h(t0) - G x in K], and [-c'x] is the
   cell floor's left-hand side [sum_j c_j fhat_j].  Only [h] moves
   with the start, and only on the thermal rows.  For any [z in K*]
   and any feasible [x], [z'(h - G x) >= 0]; with [r = G'z + c] that
   is [-c'x <= h'z - r'x], and as every feasible [x] lies in the
   boxes [0 <= x_j <= box_j],

     F*(t0) <= h(t0)'z + sum_j max(0, -r_j) box_j

   (the safe dual bound of Neumaier and Shcherbina, Math. Prog. 99,
   2004): one dual, taken at one start, bounds the frontier of every
   start, however far [z] is from optimal there, because the residual
   is charged over the box.  Rows that do not take part at a start are
   implied by its box, so the bound holds on the rows that do too.  A
   [tangent] is that bound with everything but the thermal rows folded
   into [constant]: the bound at a start is [constant] plus
   [sum_k weight_k h_k(t0)] over the rows in [support] (orthant rows of
   the machine's instance, whose constant a start writes whether or not
   the row takes part).  [magnitude] is the sum of the
   absolute values of [constant]'s terms, and [rounding] the factor
   [gamma_N] that bounds, with the evaluation's own magnitude, the
   rounding error of the whole computation. *)
type tangent = {
  constant : float;
  magnitude : float;
  support : int array;
  weight : float array;
  rounding : float;
}

(* A tangent drops the thermal entries of its dual below this fraction
   of the largest ({!tangent_of}). *)
let sparse_drop = 1e-4

(* [gamma_n = n u / (1 - n u)], [u] the unit roundoff: a sum of [n]
   products computed in floating point is within [gamma_n] times the
   sum of their absolute values of the exact sum (Higham, Accuracy and
   Stability of Numerical Algorithms, 2nd ed., Sec. 3.1). *)
let gamma n =
  let nu = float_of_int n *. (epsilon_float /. 2.0) in
  nu /. (1.0 -. nu)

(* The tangent of the frontier instance [p] (no floor, no gradient
   term) from the cone dual [z] of a solve on it, as {!Convex.Conic}
   reports it: an orthant entry is clipped at 0; a power law's block,
   reported in [(u, v, w)], is rotated by T into the stored coordinates
   and projected there onto the second-order cone (the same as
   projecting onto the rotated cone first), then its first entry is
   lifted over [hypot]'s rounding, so that [z in K*] holds exactly;
   the thermal entries below [sparse_drop] of the largest are set to
   0.  The residual [r = c + G'z] is formed over the instance's packed
   stripes, with a bound on its rounding error from the absolute
   values of its terms, and the charge uses that bound, so it never
   falls short.  [None] when anything is not finite. *)
let tangent_of p (z : Vec.t) =
  let layout = p.p_layout in
  assert (p.p_frontier && layout.bounds_offset = None);
  let h = p.p_h and c = p.p_rows.frontier_c and g = p.p_rows.g in
  (* Row [i] of the frontier on the rows that take part: the orthant
     rows its instance names, then the cone rows. *)
  let t = p.p_conic in
  let mo = Convex.Conic.n_part t and mo_full = p.p_rows.n_orthant in
  let row i = if i < mo then Convex.Conic.row t i else mo_full + (i - mo) in
  let n_rows = mo + (3 * layout.n_f) and dim = Array.length c in
  let zs = Array.make n_rows 0.0 in
  for i = 0 to mo - 1 do
    if z.(i) > 0.0 then zs.(i) <- z.(i)
  done;
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  for k = 0 to layout.n_f - 1 do
    let e = mo + (3 * k) in
    let s0 = inv_sqrt2 *. (z.(e) +. z.(e + 1))
    and s1 = inv_sqrt2 *. (z.(e) -. z.(e + 1))
    and s2 = z.(e + 2) in
    let norm = Float.hypot s1 s2 in
    let s0, s1, s2 =
      if norm <= s0 then (s0, s1, s2)
      else if norm <= -.s0 then (0.0, 0.0, 0.0)
      else
        let t = 0.5 *. (s0 +. norm) in
        (t, t *. (s1 /. norm), t *. (s2 /. norm))
    in
    zs.(e) <-
      Float.max s0 (Float.hypot s1 s2 *. (1.0 +. (4.0 *. epsilon_float)));
    zs.(e + 1) <- s1;
    zs.(e + 2) <- s2
  done;
  (* The frontier keeps its box rows, then its thermal rows: it has no
     floor and, without a gradient term, no gradient rows. *)
  let first_thermal = p.p_rows.first_thermal - 1 and last_thermal = mo in
  (* An interior-point dual is positive on every row, but off the rows
     that bind it is 1e-5 to 1e-9 of the binding ones (one per core on
     Niagara, about 1).  Those entries are dropped before [r] is
     formed, so the charge takes their part and the bound stays safe.
     At the ladder's own starts on Niagara the bound loosens by at most
     3e-6 (of about 7), and the tangent keeps a handful of rows instead
     of every kept one: long-lived arrays of every kept row, one pair
     per ladder point, moved chip.trace's peak RSS by +11 % (heap
     layout, not heap size). *)
  let largest = ref 0.0 in
  for i = first_thermal to last_thermal - 1 do
    largest := Float.max !largest zs.(i)
  done;
  for i = first_thermal to last_thermal - 1 do
    if zs.(i) < sparse_drop *. !largest then zs.(i) <- 0.0
  done;
  let r = Array.copy c and scale = Array.map Float.abs c in
  for i = 0 to n_rows - 1 do
    let zi = zs.(i) and gi = row i in
    let first = g.off.(gi) in
    for e = first to g.off.(gi + 1) - 1 do
      let col = g.lo.(gi) + e - first in
      let v = g.data.(e) *. zi in
      r.(col) <- r.(col) +. v;
      scale.(col) <- scale.(col) +. Float.abs v
    done
  done;
  let constant = ref 0.0 and magnitude = ref 0.0 in
  let add v =
    constant := !constant +. v;
    magnitude := !magnitude +. Float.abs v
  in
  for i = 0 to n_rows - 1 do
    if i < first_thermal || i >= last_thermal then add (zs.(i) *. h.(row i))
  done;
  let r_rounding = gamma (n_rows + 3) in
  for j = 0 to dim - 1 do
    let box = if j < layout.p_offset then f_box else p_box in
    add (box *. Float.max 0.0 ((r_rounding *. scale.(j)) -. r.(j)))
  done;
  let support = ref [] in
  for i = last_thermal - 1 downto first_thermal do
    if zs.(i) > 0.0 then
      support := (row i, zs.(i)) :: !support
  done;
  let support = Array.of_list !support in
  if
    Float.is_finite !constant && Float.is_finite !magnitude
    && Array.for_all (fun (_, w) -> Float.is_finite w) support
  then
    Some
      {
        constant = !constant;
        magnitude = !magnitude;
        support = Array.map fst support;
        weight = Array.map snd support;
        rounding = gamma (n_rows + dim + Array.length support + 8);
      }
  else None

let tangent built z =
  let p = built.context in
  if not (p.p_frontier && built.layout.bounds_offset = None) then
    invalid_arg "Model.tangent: not a frontier instance without gradient";
  if Vec.dim z <> Convex.Conic.n_part p.p_conic + (3 * p.p_layout.n_f) then
    invalid_arg "Model.tangent: dual length mismatch";
  tangent_of p z

(* Whether [tg] refutes [built]'s floor: the floor exceeds the bound
   at [built]'s start by more than the rounding allowance.  The start
   wrote every thermal row's constant, whether or not the row takes
   part. *)
let tangent_refutes tg built =
  let h = built.context.p_h in
  let support = tg.support and weight = tg.weight in
  let bound = ref tg.constant and magnitude = ref tg.magnitude in
  for i = 0 to Array.length support - 1 do
    let v = weight.(i) *. h.(support.(i)) in
    bound := !bound +. v;
    magnitude := !magnitude +. Float.abs v
  done;
  floor_constant ~layout:built.layout ~machine:built.machine built.ftarget
  > !bound +. (tg.rounding *. !magnitude)

(* The tangent of the frontier at one start, from a solve on every row;
   [None] unless the solve ends optimal. *)
let solved_tangent ?stats_into p =
  match solve_on_every_row ?stats_into ~ws:(workspace p) p.p_conic with
  | Convex.Conic.Optimal s -> tangent_of p s.Convex.Conic.z
  | Convex.Conic.Primal_infeasible _ | Convex.Conic.Dual_infeasible _
  | Convex.Conic.Unknown _ ->
      None

(* The ladder: [ladder_points] uniform starts, evenly spaced from the
   machine's ambient temperature to [tmax], each with the tangent of
   its frontier, solved on first request and kept in the machine's
   cache under the thermal rows it was built from (physically the
   machine's one row set for the spec's key) and its index.  A
   function of the machine and the spec, not of a table's grid, so
   every grid over the machine shares it. *)
let ladder_points = 16

type Sim.Machine.slot +=
  | Frontier_tangent of {
      rows : thermal_rows;
      point : int;
      tangent : tangent option;
    }

let ladder_ends built =
  ( built.machine.Sim.Machine.thermal.Thermal.Rc_model.ambient,
    built.spec.Spec.tmax )

let frontier_tangent built ~point =
  if point < 0 || point >= ladder_points then
    invalid_arg "Model.frontier_tangent: point outside the ladder";
  match built.layout.bounds_offset with
  | Some _ -> None
  | None ->
      let rows = built.context.p_rows in
      Sim.Machine.cached built.machine
        ~find:(function
          | Frontier_tangent s when s.rows == rows && s.point = point ->
              Some s.tangent
          | _ -> None)
        ~compute:(fun () ->
          let lo, hi = ladder_ends built in
          let tstart =
            lo +. ((hi -. lo) *. float_of_int point
                   /. float_of_int (ladder_points - 1))
          in
          let p =
            prepare_internal ~machine:built.machine ~spec:built.spec
              ~start:(`Uniform tstart) ~frontier:true
          in
          Frontier_tangent { rows; point; tangent = solved_tangent p })

(* A uniform start's verdict from the two ladder tangents that bracket
   it (the nearest two when it lies outside the ladder).  Either
   bounds the frontier; the frontier is concave in the start, so the
   bracketing ones are the tightest. *)
let ladder_refutes built =
  match (built.context.p_tstart, built.layout.bounds_offset) with
  | Some tstart, None ->
      let lo, hi = ladder_ends built in
      hi > lo
      &&
      let pos =
        (tstart -. lo) /. (hi -. lo) *. float_of_int (ladder_points - 1)
      in
      let below =
        if pos <= 0.0 then 0
        else Stdlib.min (ladder_points - 2) (int_of_float pos)
      in
      let refutes point =
        match frontier_tangent built ~point with
        | Some tg -> tangent_refutes tg built
        | None -> false
      in
      refutes below || refutes (below + 1)
  | Some _, Some _ | None, _ -> false

(* A stalled cell's verdict from its own start's frontier, whose bound
   is the frontier itself up to the solver's tolerance. *)
let own_frontier_refutes ~stats built =
  match built.layout.bounds_offset with
  | Some _ -> false
  | None -> (
      let start =
        match built.context.p_tstart with
        | Some tstart -> `Uniform tstart
        | None -> `Profile built.initial_temperatures
      in
      let p =
        prepare_internal ~machine:built.machine ~spec:built.spec ~start
          ~frontier:true
      in
      match solved_tangent ~stats_into:stats p with
      | Some tg -> tangent_refutes tg built
      | None -> false)

(* An optional row within this much of binding at the seed, in units
   of tmax (1e-4 C at tmax = 100 C), starts in the working set: the
   rows that bind at the neighbour's optimum, up to the solver's
   tolerance.  At 1e-2 the set also took rows that bind only at the
   neighbour, and Niagara's grid ended two more cells Unknown
   (DESIGN.md 6p). *)
let seed_slack = 1e-6

(* Constraint generation over the optional rows: solve on the working
   set, evaluate every row at the optimum, admit the violated ones and
   re-solve warm from that optimum until none is.  The working-set
   problem is a relaxation of the cell, so an optimum that satisfies
   every row is the cell's optimum (its dual, zero off the set, is a
   KKT certificate for the full problem), and an infeasible working
   set proves the cell infeasible.  Round 1 starts from the cold
   central point even with a seed: the seed only picks the working
   set.  Started at a neighbour's optimum, the iterate took more
   iterations than the central point, not fewer (DESIGN.md 6p); a
   later round's seed is this cell's own optimum on a smaller set, and
   it stays warm.

   The first working set is the thermal rows the floor-only optimum
   violates when the cell has that closed form, else the rows that
   bind at [start].  A run that stalls ([Unknown], or a
   dual-infeasibility certificate a bounded cell cannot have) from the
   violated rows is run again from the rows [start] picks: on a cell
   just past the frontier the floor-only optimum violates hundreds of
   rows, and the embedding started cold on all of them can stall where
   the same rows, admitted round by round, end in a certificate
   (DESIGN.md 6r).  A run that stalls from the rows [start] picks is
   retried once, cold, on every row; the last status is the call's.

   A cell whose closed form fails is first checked against the two
   ladder tangents that bracket a uniform start, and refuted with no
   conic run when its floor exceeds their bound; a cell they do not
   refute tries the active-set step ({!active_set}) before any conic
   run, and only a cell the step does not settle reaches the working
   set.  A stalled run from
   the rows [start] picks is checked against the frontier of the
   cell's own start before the all-rows retry.  A refutation carries
   the tangent's dual with a unit weight on the floor row, a Farkas
   ray, and counts as a primal-infeasibility outcome.

   Work counters add up over every solve; the outcome counters count
   the call once, by its final status. *)
let count_outcome outcome (s : Convex.Conic.stats) =
  let s =
    {
      s with
      optimal = 0;
      primal_infeasible = 0;
      dual_infeasible = 0;
      unknown = 0;
    }
  in
  match outcome with
  | `Optimal -> { s with optimal = 1 }
  | `Primal_infeasible -> { s with primal_infeasible = 1 }
  | `Dual_infeasible -> { s with dual_infeasible = 1 }
  | `Unknown -> { s with unknown = 1 }

let outcome_class : Convex.Conic.status -> _ = function
  | Convex.Conic.Optimal _ -> `Optimal
  | Convex.Conic.Primal_infeasible _ -> `Primal_infeasible
  | Convex.Conic.Dual_infeasible _ -> `Dual_infeasible
  | Convex.Conic.Unknown _ -> `Unknown

(* A column: the optimum of the floor-only relaxation at one
   [ftarget], which depends on the machine, the variant and [ftarget]
   alone, with the frequencies it serves.  The breakpoint walk
   saturates variables in ascending breakpoint order while the
   multiplier that meets the floor on the rest passes their
   breakpoint; that multiplier only grows along the walk, so every
   saturated variable's box dual [lambda c_j - 2 w_j f_box] is
   positive.  If every variable saturates the floor equals the
   capacity, and [lambda] is the last breakpoint.  [None] when the
   floor exceeds what the boxes allow (the conic method then
   certifies the cell infeasible). *)
type column = {
  col_floor_only : floor_only;
  col_x : Vec.t;
  col_frequencies : Vec.t;
  col_lambda : float;
  col_saturated : bool array;  (* per variable: saturated by the walk *)
}

let column_of fo ~layout ~variant ~machine ~ftarget =
  let floor = floor_constant ~layout ~machine ftarget in
  if not (floor <= fo.capacity) then None
  else begin
    let n = layout.n_f in
    let rec walk k sat =
      if k = n then (k, fo.breakpoint.(fo.order.(n - 1)))
      else
        let lambda = (floor -. sat) /. fo.rest.(k) in
        let j = fo.order.(k) in
        if lambda <= fo.breakpoint.(j) then (k, lambda)
        else walk (k + 1) (sat +. (fo.c.(j) *. f_box))
    in
    let walked, lambda = walk 0 0.0 in
    let x = Vec.zeros layout.dim and saturated = Array.make n false in
    Array.iteri
      (fun k j ->
        saturated.(j) <- k < walked;
        let fhat =
          if saturated.(j) then f_box
          else Float.min f_box (lambda *. fo.c.(j) /. (2.0 *. fo.w.(j)))
        in
        x.(layout.f_offset + j) <- fhat;
        x.(layout.p_offset + j) <- fhat *. fhat)
      fo.order;
    Some
      {
        col_floor_only = fo;
        col_x = x;
        col_frequencies = served_frequencies ~layout ~variant ~machine x;
        col_lambda = lambda;
        col_saturated = saturated;
      }
  end

(* A table's columns, one per [ftarget], from the machine's rows for
   the spec (read here, on the calling domain), and whether a table's
   closed-form cells can be searched: they can when every thermal
   coefficient and every [a_k] is >= 0 and each column's powers are at
   least the previous column's.  Rounded multiplication by a factor
   >= 0, rounded addition and division by [tmax > 0] are monotone, so
   the computed value of a row at a column's point cannot fall from
   one column to the next, nor as a uniform start rises: its base
   [tstart a_k + c_k] does not fall, so its constant does not rise, and
   a row the box implies at a start it implies at every cooler one.  A
   row that a column violates, the next column and every hotter start
   violate too, so the cells the closed form settles are a prefix of
   each row and of each column.  A [None] column settles nothing, so
   it may only follow every [Some]. *)
type columns = {
  cs : column option array;
  cs_ftargets : float array;
  cs_machine : Sim.Machine.t;
  cs_spec : Spec.t;
  cs_rows : thermal_rows;
  cs_searchable : bool;
}

(* Whether each column's power components are at least the previous
   column's (a NaN fails), with [None] only after every [Some]. *)
let ascending layout cs =
  let powers_le a b =
    let ok = ref true in
    for j = layout.p_offset to layout.p_offset + layout.n_p - 1 do
      if not (a.col_x.(j) <= b.col_x.(j)) then ok := false
    done;
    !ok
  in
  let ok = ref true in
  for j = 1 to Array.length cs - 1 do
    match (cs.(j - 1), cs.(j)) with
    | Some a, Some b -> if not (powers_le a b) then ok := false
    | None, Some _ -> ok := false
    | _, None -> ()
  done;
  !ok

let columns ~machine ~(spec : Spec.t) ftargets =
  Array.iter (check_ftarget ~machine) ftargets;
  let steps, layout = window ~machine ~spec in
  let rows = thermal_rows machine ~spec ~layout ~steps in
  let cs =
    Array.map
      (fun ftarget ->
        Option.bind rows.floor_only (fun fo ->
            column_of fo ~layout ~variant:spec.Spec.variant ~machine ~ftarget))
      ftargets
  in
  {
    cs;
    cs_ftargets = Array.copy ftargets;
    cs_machine = machine;
    cs_spec = spec;
    cs_rows = rows;
    cs_searchable = rows.nonnegative && ascending layout cs;
  }

let searchable t = t.cs_searchable

(* {!solve}'s closed-form check of [col] on the start [p]: the column's
   point against the start's candidates, the thermal rows it keeps. *)
let start_holds p col = Convex.Conic.holds p.p_conic col.col_x

(* The first index in [[lo, hi]] where [holds] fails, for a [holds]
   that is true on a prefix of [[lo, hi)] ([hi] is never checked). *)
let bisect holds ~lo ~hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if holds mid then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether thermal row [idx] fails the column point [x] at the uniform
   start [tstart], as {!start_holds} decides it on that start's
   candidates: the box does not imply the row and its value exceeds
   its constant, both from the start's base and constant. *)
let[@inline] row_fails rows ~tmax ~tstart idx x =
  let base = affine_base rows ~tstart idx in
  (not (implied rows idx base))
  && not
       (row_sum rows.g (rows.first_thermal + idx) x
        -. thermal_constant ~tmax base
        <= 0.0)

(* The closed rows in one pass over the thermal rows (DESIGN.md 6zh):
   [r] starts at the number of starts, each row is checked at start
   [r - 1], and a row that fails there lowers [r] to the first start it
   fails at, found by bisection over [[0, r - 1)] (written out, not
   {!bisect}, so that no closure is allocated); the pass stops once
   [r] is 0.  A row that fails at a start fails at every hotter one
   where the columns are searchable, so [r] ends at the first start
   some row fails at.  Every start is checked first, as the pass reads
   them out of order. *)
let closed_rows t tstarts =
  let m = Array.length tstarts and n = Array.length t.cs in
  for i = 0 to m - 1 do
    if not (Float.is_finite tstarts.(i)) then
      invalid_arg "Model.rows: non-finite tstart";
    if i > 0 && not (tstarts.(i - 1) <= tstarts.(i)) then
      invalid_arg "Model.rows: tstarts not ascending"
  done;
  match if t.cs_searchable && n > 0 then t.cs.(n - 1) else None with
  | None -> 0
  | Some col ->
      let rows = t.cs_rows and tmax = t.cs_spec.Spec.tmax and x = col.col_x in
      let r = ref m and idx = ref 0 in
      while !r > 0 && !idx < Array.length rows.threshold do
        if row_fails rows ~tmax ~tstart:tstarts.(!r - 1) !idx x then begin
          let lo = ref 0 and hi = ref (!r - 1) in
          while !lo < !hi do
            let mid = !lo + ((!hi - !lo) / 2) in
            if row_fails rows ~tmax ~tstart:tstarts.(mid) !idx x then hi := mid
            else lo := mid + 1
          done;
          r := !lo
        end;
        incr idx
      done;
      !r

(* A KKT point of the cell as [raw], with its exact dual over every
   row that takes part: [W_j] on each power law, the box dual
   [lambda c_j - 2 W_j f_box] on the upper frequency box of each
   variable [saturated] names, [lambda] on the floor, [mu_k] on each
   row [set.(k)] of [A], zero everywhere else.  The closed form is the
   case [A] empty and [W = w], its saturated variables those of the
   column's walk. *)
let kkt_raw built fo ~x ~lambda ~w ~saturated ~set ~mu ~size =
  let layout = built.layout in
  let dual = Vec.zeros (constraint_count built.context) in
  let objective = ref 0.0 in
  for j = 0 to layout.n_f - 1 do
    dual.(power_law_index j) <- w.(j);
    if saturated j then
      dual.(upper_f_box_index j) <-
        (lambda *. fo.c.(j)) -. (2.0 *. w.(j) *. f_box);
    objective := !objective +. (fo.w.(j) *. x.(layout.p_offset + j))
  done;
  dual.(floor_index layout) <- lambda;
  (* A candidate at position [k] of the rows that take part is
     constraint [k + n_f] (see {!orthant_row}). *)
  for k = 0 to size - 1 do
    dual.(set.(k) + layout.n_f) <- mu.(k)
  done;
  {
    Convex.Solve.x;
    objective_value = !objective;
    dual;
    gap = 0.0;
    iterations = 0;
  }

(* The active-set step (DESIGN.md 6zd, 6zg): a cell whose closed form
   fails but whose optimum binds a few thermal rows.  With the power
   laws tight ([phat_j = fhat_j^2]), the rows' power coefficients
   [g_kj], a floor multiplier [lambda > 0] and multipliers [mu_k >= 0]
   on the rows of a set [S], the Lagrangian is separable and its
   minimum over the boxes is at

     fhat_j = min (f_box, lambda c_j / (2 W_j)),
     W_j = w_j + sum_{k in S} mu_k g_kj.

   Its value there is the dual function

     D = sum_j (W_j fhat_j^2 - lambda c_j fhat_j) + lambda F
         - sum_{k in S} mu_k (h_k - active_aim),

   concave, with gradient [F - sum_j c_j fhat_j] in [lambda] and row
   [k]'s value less its aimed constant in [mu_k]: a row of [S] is aimed
   [active_aim] (in units of tmax, 1e-10 C at tmax = 100 C) inside its
   constant.  The step is a dual active-set method in the manner of
   Goldfarb and Idnani.  It maximizes [D] over [(lambda, mu_S)] by
   Newton steps, whose system in [(lambda, -mu)] has the matrix
   [J = sum_j v_j v_j' / (2 W_j)] over the variables below their box,
   [v_j = (c_j, 2 g_kj fhat_j ...)], factorized by Cholesky in place;
   and it changes [S] or the boxes only at a breakpoint:
   - a round whose point meets the floor and every row of [S] (within
     [active_tol] of the aim, the floor's scaled by [max(1, F)]) adds
     the candidate the point violates most, at [mu = 0], or accepts the
     point when none is violated;
   - a ratio test stops a step where a multiplier of [S] reaches 0, and
     that row leaves [S], so every iterate keeps [mu >= 0];
   - the same test stops a step where a variable's box dual
     [beta_j = lambda c_j - 2 f_box W_j] changes sign, and the variable
     reaches or leaves [f_box] there, so [J] never carries a variable
     held at its box ([beta_j] is linear in [(lambda, mu)], and a
     Newton direction crosses [beta_j = 0] the same way from either
     side of it, so no variable flips back and forth);
   - where [J] is singular because [S] has as many rows as there are
     free variables, [D] is linear along its null vector, and a step
     along it, uphill, to the first breakpoint drops a row (or moves a
     box) instead of failing.
   A Newton step of length [t] is accepted when [D] rises by [1e-4 t]
   of its slope, or the squared residual falls by [1e-4 t] of itself
   (near the optimum [D]'s rise is below its rounding), halving at
   most [active_halvings] times.  At most [active_steps] steps and
   [active_changes] changes bound what a cell the step cannot settle
   costs before the conic method takes it.  The scratch (the set, its
   dense coefficients, [(lambda, mu)], the direction, the residuals,
   [J] and the point) is sized once per call from the variable count.

   Newton ends once each row's residual is within [active_tol] of its
   aim and the floor's within [active_tol max(1, F)]: each row of [S]
   then ends with a slack in [[active_aim - active_tol, active_aim +
   active_tol]], above 0 by far more than the rounding of its value,
   so the exact check passes on it. *)
let active_aim = 1e-12
let active_tol = 1e-13
let active_steps = 80
let active_halvings = 8
let active_changes = 48

(* The step's state: the set [S] ([set], positions among the start's
   rows, at most [n]) and the dense power coefficients of its rows
   ([gd], row [k] at [k n]); [y] is [lambda] then [mu_S], [y0] the
   iterate a step leaves from and [dir] its direction in
   [(lambda, -mu)]; [r] the floor's residual, then each row's; [w] is
   [W]; [held] marks the variables at [f_box]; [v] holds [D], the
   squared residual and a step's length. *)
type dual = {
  d_fo : floor_only;
  d_t : Convex.Conic.t;
  d_g : packed;
  d_h : float array;
  d_f_off : int;
  d_p_off : int;
  d_n : int;
  d_floor : float;
  d_set : int array;
  mutable d_size : int;
  d_gd : float array;
  d_y : float array;
  d_y0 : float array;
  d_dir : float array;
  d_r : float array;
  d_w : float array;
  d_held : Bytes.t;
  d_jac : float array;
  d_x : Vec.t;
  d_v : float array;
}

(* Row [k] of the set: its dense power coefficients. *)
let dual_load d k =
  let g = d.d_g and n = d.d_n in
  let o = Convex.Conic.row d.d_t d.d_set.(k) in
  Array.fill d.d_gd (k * n) n 0.0;
  for e = g.off.(o) to g.off.(o + 1) - 1 do
    d.d_gd.((k * n) + g.lo.(o) + e - g.off.(o) - d.d_p_off) <- g.data.(e)
  done

(* [W], the point, the residuals, [D] (into [v.(0)]) and the squared
   residual (into [v.(1)]) at [y]; [false] where a [W_j] is not > 0,
   which only a negative row coefficient allows.  A row's value is
   summed as {!Convex.Conic.holds} sums it. *)
let dual_eval d =
  let n = d.d_n and fo = d.d_fo and x = d.d_x and y = d.d_y in
  let f_off = d.d_f_off and g = d.d_g in
  let ok = ref true and value = ref 0.0 and served = ref 0.0 in
  for j = 0 to n - 1 do
    let wj = ref fo.w.(j) in
    for k = 0 to d.d_size - 1 do
      wj := !wj +. (y.(k + 1) *. d.d_gd.((k * n) + j))
    done;
    d.d_w.(j) <- !wj;
    if not (!wj > 0.0) then ok := false;
    let f =
      if Bytes.get d.d_held j <> '\000' then f_box
      else Float.min f_box (y.(0) *. fo.c.(j) /. (2.0 *. !wj))
    in
    x.(f_off + j) <- f;
    x.(d.d_p_off + j) <- f *. f;
    served := !served +. (fo.c.(j) *. f);
    value := !value +. (((!wj *. f) -. (y.(0) *. fo.c.(j))) *. f)
  done;
  d.d_r.(0) <- !served -. d.d_floor;
  let scaled = d.d_r.(0) /. Float.max 1.0 d.d_floor in
  let phi = ref (scaled *. scaled) in
  value := !value +. (y.(0) *. d.d_floor);
  for k = 0 to d.d_size - 1 do
    let o = Convex.Conic.row d.d_t d.d_set.(k) in
    d.d_r.(k + 1) <- row_sum g o x -. d.d_h.(o) +. active_aim;
    value := !value -. (y.(k + 1) *. (d.d_h.(o) -. active_aim));
    phi := !phi +. (d.d_r.(k + 1) *. d.d_r.(k + 1))
  done;
  d.d_v.(0) <- !value;
  d.d_v.(1) <- !phi;
  !ok

(* The floor met within [active_tol max(1, F)], every row of the set
   within [active_tol] of its aim. *)
let dual_converged d =
  let ok = ref (Float.abs d.d_r.(0) <= active_tol *. Float.max 1.0 d.d_floor) in
  for k = 1 to d.d_size do
    if not (Float.abs d.d_r.(k) <= active_tol) then ok := false
  done;
  !ok

(* [J] on the floor and the [m - 1] rows of the set, over the variables
   below their box at the point [x] holds, factorized in place in
   [jac]'s lower triangle.  Returns the first pivot at or below 1e-12
   of its entry (where [J] is singular), or [m]. *)
let dual_factor d m =
  let n = d.d_n and jac = d.d_jac and c = d.d_fo.c in
  Array.fill jac 0 (m * m) 0.0;
  for j = 0 to n - 1 do
    if Bytes.get d.d_held j = '\000' then begin
      let f2 = 2.0 *. d.d_x.(d.d_f_off + j) and w2 = 2.0 *. d.d_w.(j) in
      for a = 0 to m - 1 do
        let va = if a = 0 then c.(j) else f2 *. d.d_gd.(((a - 1) * n) + j) in
        let va = va /. w2 in
        for b = 0 to a do
          let vb = if b = 0 then c.(j) else f2 *. d.d_gd.(((b - 1) * n) + j) in
          jac.((a * m) + b) <- jac.((a * m) + b) +. (va *. vb)
        done
      done
    end
  done;
  let failed = ref m and a = ref 0 in
  while !failed = m && !a < m do
    let a' = !a in
    for b = 0 to a' do
      let s = ref jac.((a' * m) + b) in
      for k = 0 to b - 1 do
        s := !s -. (jac.((a' * m) + k) *. jac.((b * m) + k))
      done;
      if b < a' then jac.((a' * m) + b) <- !s /. jac.((b * m) + b)
      else if !s > 1e-12 *. jac.((a' * m) + a') then
        jac.((a' * m) + a') <- sqrt !s
      else failed := a'
    done;
    incr a
  done;
  !failed

(* The Newton direction, [J dir = -r], from [dual_factor]'s factor. *)
let dual_newton d m =
  let jac = d.d_jac and dir = d.d_dir in
  for a = 0 to m - 1 do
    let s = ref (-.d.d_r.(a)) in
    for k = 0 to a - 1 do
      s := !s -. (jac.((a * m) + k) *. dir.(k))
    done;
    dir.(a) <- !s /. jac.((a * m) + a)
  done;
  for a = m - 1 downto 0 do
    let s = ref dir.(a) in
    for k = a + 1 to m - 1 do
      s := !s -. (jac.((k * m) + a) *. dir.(k))
    done;
    dir.(a) <- !s /. jac.((a * m) + a)
  done

(* The null vector of [J] when only its last pivot failed: with
   [J = [[J11, j]; [j', _]]] and [J11 = L L'], the factor holds
   [L^-1 j] in the last row, and [dir = (J11^-1 j, -1)]. *)
let dual_null d m =
  let jac = d.d_jac and dir = d.d_dir and l = m - 1 in
  for a = l - 1 downto 0 do
    let s = ref jac.((l * m) + a) in
    for k = a + 1 to l - 1 do
      s := !s -. (jac.((k * m) + a) *. dir.(k))
    done;
    dir.(a) <- !s /. jac.((a * m) + a)
  done;
  dir.(l) <- -1.0

(* The slope of [D] along [dir], into [v.(2)]: [-r . dir]. *)
let dual_slope d m =
  let s = ref 0.0 in
  for a = 0 to m - 1 do
    s := !s -. (d.d_r.(a) *. d.d_dir.(a))
  done;
  d.d_v.(2) <- !s

(* The ratio test: the longest step [t <= cap] along [dir] before a
   multiplier of the set reaches 0 or a variable's box dual changes
   sign the way that moves it across [f_box], into [v.(2)].  Returns
   the breakpoint: the row's position in the set, [-2 - j] for variable
   [j], or [-1] when [cap] comes first. *)
let dual_ratio d ~cap =
  let n = d.d_n and dir = d.d_dir and y = d.d_y and c = d.d_fo.c in
  let best = ref cap and breakpoint = ref (-1) in
  for k = 1 to d.d_size do
    if dir.(k) > 0.0 && y.(k) /. dir.(k) < !best then begin
      best := y.(k) /. dir.(k);
      breakpoint := k - 1
    end
  done;
  for j = 0 to n - 1 do
    let dw = ref 0.0 in
    for k = 0 to d.d_size - 1 do
      dw := !dw -. (dir.(k + 1) *. d.d_gd.((k * n) + j))
    done;
    let beta = (y.(0) *. c.(j)) -. (2.0 *. f_box *. d.d_w.(j)) in
    let dbeta = (dir.(0) *. c.(j)) -. (2.0 *. f_box *. !dw) in
    let held = Bytes.get d.d_held j <> '\000' in
    if
      ((held && dbeta < 0.0) || ((not held) && dbeta > 0.0))
      && Float.max 0.0 (-.beta /. dbeta) < !best
    then begin
      best := Float.max 0.0 (-.beta /. dbeta);
      breakpoint := -2 - j
    end
  done;
  d.d_v.(2) <- !best;
  !breakpoint

(* [y = y0 + t dir], in [(lambda, -mu)]. *)
let dual_move d t =
  d.d_y.(0) <- d.d_y0.(0) +. (t *. d.d_dir.(0));
  for k = 1 to d.d_size do
    d.d_y.(k) <- d.d_y0.(k) -. (t *. d.d_dir.(k))
  done

(* The change at breakpoint [b] of {!dual_ratio}: row [b] leaves the
   set, or variable [-2 - b] reaches or leaves its box. *)
let dual_change d b =
  if b >= 0 then begin
    let n = d.d_n in
    for k = b to d.d_size - 2 do
      d.d_set.(k) <- d.d_set.(k + 1);
      d.d_y.(k + 1) <- d.d_y.(k + 2);
      Array.blit d.d_gd ((k + 1) * n) d.d_gd (k * n) n
    done;
    d.d_size <- d.d_size - 1
  end
  else
    let j = -2 - b in
    Bytes.set d.d_held j (if Bytes.get d.d_held j = '\000' then '\001' else '\000')

(* Candidate [k] joins the set at [mu = 0]. *)
let dual_add d k =
  d.d_set.(d.d_size) <- k;
  d.d_y.(d.d_size + 1) <- 0.0;
  dual_load d d.d_size;
  d.d_size <- d.d_size + 1

(* The variables at their box where the point [x] holds puts them. *)
let dual_hold d =
  for j = 0 to d.d_n - 1 do
    Bytes.set d.d_held j
      (if d.d_x.(d.d_f_off + j) < f_box then '\000' else '\001')
  done

(* [(lambda, -mu_S)] into [dir] from a start [s] at which the set's
   rows bind: on its variables strictly inside their box, stationarity
   [lambda c_j - sum_k mu_k 2 g_kj fhat_j = 2 w_j fhat_j] is linear, and
   it is solved in least squares weighted by [1 / (2 w_j)], through the
   normal equations, whose matrix is [J] at [W = w] and the start's
   point.  Exact when [s] is a KKT point with these rows, as the
   previous cell of a table row is.  [false] where the equations are
   singular. *)
let dual_recover d s =
  let n = d.d_n and m = d.d_size + 1 and c = d.d_fo.c in
  Array.fill d.d_r 0 m 0.0;
  for j = 0 to n - 1 do
    let f = s.(d.d_f_off + j) in
    d.d_x.(d.d_f_off + j) <- f;
    d.d_w.(j) <- d.d_fo.w.(j);
    let inside = f > 0.0 && f < f_box in
    Bytes.set d.d_held j (if inside then '\000' else '\001');
    if inside then begin
      d.d_r.(0) <- d.d_r.(0) -. (c.(j) *. f);
      for k = 1 to m - 1 do
        d.d_r.(k) <- d.d_r.(k) -. (2.0 *. f *. d.d_gd.(((k - 1) * n) + j) *. f)
      done
    end
  done;
  dual_factor d m = m
  && begin
       dual_newton d m;
       true
     end

(* [lambda > 0], every [mu >= 0], every [W_j > 0] and every variable at
   its box with a box dual [lambda c_j - 2 W_j f_box >= 0]. *)
let dual_feasible d =
  let y = d.d_y and c = d.d_fo.c in
  let ok = ref (y.(0) > 0.0) in
  for k = 1 to d.d_size do
    if not (y.(k) >= 0.0) then ok := false
  done;
  for j = 0 to d.d_n - 1 do
    if
      not
        (d.d_w.(j) > 0.0
        && (d.d_x.(d.d_f_off + j) < f_box
           || (y.(0) *. c.(j)) -. (2.0 *. d.d_w.(j) *. f_box) >= 0.0))
    then ok := false
  done;
  !ok

(* The cell's optimum by the dual step, as [raw] with its exact dual
   ([W_j] on each power law, the box dual on each variable at its box,
   [lambda] on the floor, [mu_k] on each row of the set, zero
   elsewhere), or [None].  It is a function of the cell and [start]
   alone: it starts from the [(lambda, mu)] {!dual_recover} finds for
   the candidates that bind at [start] within {!seed_slack}, less the
   rows whose [mu] is not positive, and from the closed form ([S]
   empty, the column's [lambda]) where there is no start, none binds,
   the equations are singular or [lambda] is not positive.  The point
   is accepted only where no candidate is violated (the one scan
   {!Convex.Conic.most_violated} of a round, [-1] exactly where
   {!Convex.Conic.holds} passes) and {!dual_feasible}. *)
let active_set ?start built col =
  let p = built.context and layout = built.layout in
  let n = layout.n_f in
  if n < 2 then None
  else begin
    let d =
      {
        d_fo = col.col_floor_only;
        d_t = p.p_conic;
        d_g = p.p_rows.g;
        d_h = p.p_h;
        d_f_off = layout.f_offset;
        d_p_off = layout.p_offset;
        d_n = n;
        d_floor = floor_constant ~layout ~machine:built.machine built.ftarget;
        d_set = Array.make n 0;
        d_size = 0;
        d_gd = Array.make (n * n) 0.0;
        d_y = Array.make (n + 1) 0.0;
        d_y0 = Array.make (n + 1) 0.0;
        d_dir = Array.make (n + 1) 0.0;
        d_r = Array.make (n + 1) 0.0;
        d_w = Array.make n 0.0;
        d_held = Bytes.make n '\000';
        d_jac = Array.make ((n + 1) * (n + 1)) 0.0;
        d_x = Vec.zeros layout.dim;
        d_v = Array.make 3 0.0;
      }
    in
    (match start with
    | Some s when Vec.dim s = layout.dim ->
        d.d_size <- Convex.Conic.binding d.d_t s ~above:(-.seed_slack) ~into:d.d_set
    | Some _ | None -> ());
    for k = 0 to d.d_size - 1 do
      dual_load d k
    done;
    let recovered =
      d.d_size > 0
      && dual_recover d (Option.get start)
      && d.d_dir.(0) > 0.0
    in
    if recovered then begin
      d.d_y.(0) <- d.d_dir.(0);
      for k = 1 to d.d_size do
        d.d_y.(k) <- -.d.d_dir.(k)
      done;
      let k = ref 0 in
      while !k < d.d_size do
        if d.d_y.(!k + 1) > 0.0 then incr k else dual_change d !k
      done
    end
    else begin
      d.d_size <- 0;
      d.d_y.(0) <- col.col_lambda
    end;
    Bytes.fill d.d_held 0 n '\000';
    ignore (dual_eval d);
    dual_hold d;
    (* A round starts at an evaluated point. *)
    let rec round steps changes =
      if changes > active_changes then false
      else if dual_converged d then begin
        let worst = Convex.Conic.most_violated d.d_t d.d_x in
        if worst < 0 then dual_feasible d
        else if d.d_size = n then false
        else begin
          dual_add d worst;
          dual_eval d && round steps (changes + 1)
        end
      end
      else if steps = active_steps then false
      else begin
        let m = d.d_size + 1 in
        let pivot = dual_factor d m in
        Array.blit d.d_y 0 d.d_y0 0 m;
        if pivot = m then begin
          let value = d.d_v.(0) and phi = d.d_v.(1) in
          dual_newton d m;
          dual_slope d m;
          let slope = d.d_v.(2) in
          let b = dual_ratio d ~cap:1.0 in
          let rec search t tries =
            dual_move d t;
            if
              d.d_y.(0) > 0.0
              && dual_eval d
              && (d.d_v.(0) >= value +. (1e-4 *. t *. slope)
                 || d.d_v.(1) <= (1.0 -. (1e-4 *. t)) *. phi)
            then
              (* An unhalved step ends at the breakpoint, if any. *)
              if tries = active_halvings && b <> -1 then begin
                dual_change d b;
                dual_eval d && round (steps + 1) (changes + 1)
              end
              else round (steps + 1) changes
            else tries > 0 && search (0.5 *. t) (tries - 1)
          in
          search d.d_v.(2) active_halvings
        end
        else if pivot = m - 1 then begin
          (* [D] is linear along the null vector: step uphill to the
             first breakpoint, where a row leaves or a box moves. *)
          dual_null d m;
          dual_slope d m;
          if d.d_v.(2) < 0.0 then
            for a = 0 to m - 1 do
              d.d_dir.(a) <- -.d.d_dir.(a)
            done;
          let uphill = Float.abs d.d_v.(2) > 0.0 in
          let b = dual_ratio d ~cap:infinity in
          let t = d.d_v.(2) in
          uphill && b <> -1
          && (d.d_dir.(0) >= 0.0 || t < d.d_y.(0) /. -.d.d_dir.(0))
          && begin
               dual_move d t;
               dual_change d b;
               dual_eval d && round (steps + 1) (changes + 1)
             end
        end
        else false
      end
    in
    if not (dual_eval d && round 0 0) then None
    else
      Some
        (kkt_raw built col.col_floor_only ~x:d.d_x ~lambda:d.d_y.(0) ~w:d.d_w
           ~saturated:(fun j -> not (d.d_x.(d.d_f_off + j) < f_box))
           ~set:d.d_set ~mu:(Array.sub d.d_y 1 d.d_size) ~size:d.d_size)
  end

(* A cell the floor-only optimum or the active-set step settles counts
   as one optimal solve with no interior-point work, and a cell a
   ladder tangent refutes as one primal-infeasibility outcome with
   none. *)
let closed_form_stats = count_outcome `Optimal Convex.Conic.stats_zero
let ladder_stats = count_outcome `Primal_infeasible Convex.Conic.stats_zero

(* How a cell ends: [Refuted] is a ladder tangent's verdict, which
   {!solve} reports [Infeasible] and a table row counts. *)
type settled = Outcome of outcome | Refuted

(* A cell is settled in closed form when [column] holds on the
   candidates of its start's rows (its kept thermal rows, which the
   start's instance states as the cell's does) — checked only where
   [checked] — and by the active-set step when that check and the
   ladder's fail and the step finds a KKT point; only after all three
   is the cell's instance made, the workspace [ws] forced and the
   column's violated rows admitted as the first working set, which the
   conic rounds then start from. *)
let settle_cell ?conic_stats_into ~ws ?start ~checked built column =
  let p = built.context in
  let record stats =
    match conic_stats_into with
    | Some acc -> acc := Convex.Conic.stats_add !acc stats
    | None -> ()
  in
  match column with
  | Some col when checked && start_holds p col ->
      record closed_form_stats;
      (* The cell takes over the column's [x]. *)
      let fo = col.col_floor_only in
      Outcome
        (Feasible
           (solution_of_x built ~settled_by:`Closed_form
              (kkt_raw built fo ~x:col.col_x ~lambda:col.col_lambda ~w:fo.w
                 ~saturated:(Array.get col.col_saturated) ~set:[||] ~mu:[||]
                 ~size:0)))
  | _ when ladder_refutes built ->
      record ladder_stats;
      Refuted
  | column -> (
      match Option.bind column (active_set ?start built) with
      | Some raw ->
          record closed_form_stats;
          Outcome (Feasible (solution_of_x built ~settled_by:`Active_set raw))
      | None ->
      let t = Lazy.force built.conic in
      let ws = Lazy.force ws in
      let stats = ref Convex.Conic.stats_zero in
      let rec round warm =
        match Convex.Conic.solve ?warm ~stats_into:stats ~ws t with
        | Convex.Conic.Optimal s
          when Convex.Conic.admit ws t s.Convex.Conic.x ~above:0.0 > 0 ->
            round (Some s.Convex.Conic.x)
        | status -> status
      in
      let from_start () =
        Convex.Conic.restrict ws t;
        (match start with
        | Some x when Vec.dim x = built.layout.dim ->
            ignore (Convex.Conic.admit ws t x ~above:(-.seed_slack))
        | Some _ | None -> ());
        round None
      in
      let stalled = function
        | Convex.Conic.Optimal _ | Convex.Conic.Primal_infeasible _ -> false
        | Convex.Conic.Dual_infeasible _ | Convex.Conic.Unknown _ -> true
      in
      let status =
        match column with
        | Some col ->
            Convex.Conic.restrict ws t;
            ignore (Convex.Conic.admit ws t col.col_x ~above:0.0);
            let status = round None in
            if stalled status then from_start () else status
        | None -> from_start ()
      in
      if stalled status && own_frontier_refutes ~stats built then begin
        record (count_outcome `Primal_infeasible !stats);
        Outcome Infeasible
      end
      else
        let status =
          if stalled status then solve_on_every_row ~stats_into:stats ~ws t
          else status
        in
        record (count_outcome (outcome_class status) !stats);
        Outcome (outcome_of built status))

let solve ?conic_stats_into ?conic_ws ?start built =
  let p = built.context in
  let column =
    match p.p_rows.floor_only with
    | Some fo when not p.p_frontier ->
        column_of fo ~layout:built.layout ~variant:built.spec.Spec.variant
          ~machine:built.machine ~ftarget:built.ftarget
    | Some _ | None -> None
  in
  let ws =
    match conic_ws with
    | Some ws -> Lazy.from_val ws
    | None -> lazy (workspace p)
  in
  match
    settle_cell ?conic_stats_into ~ws ?start ~checked:true built column
  with
  | Outcome outcome -> outcome
  | Refuted -> Infeasible

type row = {
  cells : Table.cell array;
  feasible : int;
  closed_form : int;
  active_set : int;
  frontier_verdict : bool;
  conic : Convex.Conic.stats;
}

(* A closed row is served copies of its columns' frequencies and
   takes no start.  Any other row prepares its start, bisects its
   closed prefix on it where the columns are searchable, and settles
   every later cell from its column: where the columns are searchable
   the bisection has shown that the column fails there, so its check
   is not repeated.  Each cell is seeded with the previous feasible
   column's point, and the row's one workspace is made when a cell
   first reaches the conic method. *)
let rows t tstarts =
  let closed = closed_rows t tstarts in
  let n = Array.length t.cs in
  fun i ->
    let p =
      lazy (prepare ~machine:t.cs_machine ~spec:t.cs_spec ~tstart:tstarts.(i))
    in
    let holds j =
      Option.fold ~none:false ~some:(start_holds (Lazy.force p)) t.cs.(j)
    in
    let prefix =
      if i < closed then n
      else if t.cs_searchable then bisect holds ~lo:0 ~hi:n
      else 0
    in
    let cells = Array.make n Table.Infeasible and start = ref None in
    for j = 0 to prefix - 1 do
      let col = Option.get t.cs.(j) in
      cells.(j) <- Table.Frequencies (Vec.copy col.col_frequencies);
      start := Some col.col_x
    done;
    let conic = ref Convex.Conic.stats_zero and closed_form = ref prefix in
    let active_set = ref 0 and ws = lazy (workspace (Lazy.force p)) in
    let rec from j start =
      if j = n then (j, false)
      else
        match
          settle_cell ~conic_stats_into:conic ~ws ?start
            ~checked:(not t.cs_searchable)
            (instantiate (Lazy.force p) ~ftarget:t.cs_ftargets.(j))
            t.cs.(j)
        with
        | Refuted -> (j, true)
        | Outcome Infeasible -> (j, false)
        | Outcome (Feasible s) ->
            (match s.settled_by with
            | `Closed_form -> incr closed_form
            | `Active_set -> incr active_set
            | `Interior_point -> ());
            cells.(j) <- Table.Frequencies s.frequencies;
            from (j + 1) (Some s.raw.Convex.Solve.x)
    in
    let feasible, frontier_verdict = from prefix !start in
    {
      cells;
      feasible;
      closed_form = !closed_form;
      active_set = !active_set;
      frontier_verdict;
      conic = { !conic with optimal = !conic.optimal + prefix };
    }
