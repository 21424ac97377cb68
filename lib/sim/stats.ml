open Linalg

type band = { lo : float; hi : float }

(* The paper's Fig. 6 categories: <80, 80-90, 90-100, >100 C. *)
let paper_bands =
  [
    { lo = neg_infinity; hi = 80.0 };
    { lo = 80.0; hi = 90.0 };
    { lo = 90.0; hi = 100.0 };
    { lo = 100.0; hi = infinity };
  ]

(* The float accumulators live in their own all-float record: OCaml
   stores such records flat (unboxed fields), so the per-step mutable
   writes below do not allocate.  Mixing them with the int and array
   fields of [t] would box every float field and allocate a fresh box
   on every [<-]. *)
type acc = {
  mutable above_time : float;  (* core-seconds above tmax *)
  mutable sim_time : float;
  mutable peak : float;
  mutable peak_gradient : float;
  mutable gradient_sum : float;
  mutable waiting_sum : float;
  mutable waiting_max : float;
  mutable energy : float;
}

(* Bounded waiting-time sketch: a fixed geometric histogram.  Bucket 0
   holds waits below [hist_min]; buckets 1..254 are geometric with
   ratio [hist_gamma] up to [hist_max]; bucket 255 is the overflow.
   256 ints regardless of run length, ~8.5% relative resolution
   (gamma = (hist_max/hist_min)^(1/254)), and merging two sketches is
   an elementwise sum — what the fleet aggregation relies on. *)
let hist_buckets = 256
let hist_min = 1e-6
let hist_max = 1e3

let hist_gamma =
  exp (log (hist_max /. hist_min) /. float_of_int (hist_buckets - 2))

let hist_inv_log_gamma = 1.0 /. log hist_gamma

(* Cross-chip clock arithmetic (fleet window boundaries vs per-chip
   step clocks) legitimately produces waits like -1e-18; anything
   below this is a real accounting bug and still raises. *)
let waiting_clamp = -1e-9

type t = {
  bands : band array;
  band_lo : float array;  (* bands.(b).lo, unboxed for the hot loop *)
  band_hi : float array;
  n_cores : int;
  tmax : float;
  band_time : float array;  (* core-seconds accumulated per band *)
  wait_hist : int array;  (* waiting-time sketch, hist_buckets wide *)
  acc : acc;
  mutable violation_steps : int;
  mutable total_steps : int;
  mutable dispatched : int;
  mutable completed : int;
}

let create ~n_cores ~tmax () =
  if n_cores <= 0 then invalid_arg "Stats.create: non-positive cores";
  (* A violation is [hottest > tmax], which a NaN threshold never
     satisfies: the guarantee would pass whatever the temperatures. *)
  if not (Float.is_finite tmax) then invalid_arg "Stats.create: non-finite tmax";
  let bands = paper_bands in
  {
    bands = Array.of_list bands;
    band_lo = Array.of_list (List.map (fun b -> b.lo) bands);
    band_hi = Array.of_list (List.map (fun b -> b.hi) bands);
    n_cores;
    tmax;
    band_time = Array.make (List.length bands) 0.0;
    wait_hist = Array.make hist_buckets 0;
    acc =
      {
        above_time = 0.0;
        sim_time = 0.0;
        peak = neg_infinity;
        peak_gradient = 0.0;
        gradient_sum = 0.0;
        waiting_sum = 0.0;
        waiting_max = 0.0;
        energy = 0.0;
      };
    violation_steps = 0;
    total_steps = 0;
    dispatched = 0;
    completed = 0;
  }

(* The whole recording path runs once per thermal step, so it is
   written with plain [for] loops and inlined min/max: no closures,
   no boxed [Float.max] calls, zero heap allocation. *)
let record_step s ~dt ~core_temperatures =
  let n = Vec.dim core_temperatures in
  if n <> s.n_cores then
    invalid_arg "Stats.record_step: temperature vector length mismatch";
  let a = s.acc in
  let hottest = ref (Array.unsafe_get core_temperatures 0)
  and coldest = ref (Array.unsafe_get core_temperatures 0) in
  for i = 1 to n - 1 do
    let x = Array.unsafe_get core_temperatures i in
    if x > !hottest then hottest := x;
    if x < !coldest then coldest := x
  done;
  let hottest = !hottest and coldest = !coldest in
  s.total_steps <- s.total_steps + 1;
  a.sim_time <- a.sim_time +. dt;
  if hottest > a.peak then a.peak <- hottest;
  let spread = hottest -. coldest in
  if spread > a.peak_gradient then a.peak_gradient <- spread;
  a.gradient_sum <- a.gradient_sum +. spread;
  if hottest > s.tmax then s.violation_steps <- s.violation_steps + 1;
  let band_lo = s.band_lo
  and band_hi = s.band_hi
  and band_time = s.band_time in
  let n_bands = Array.length band_lo in
  for i = 0 to n - 1 do
    let temp = Array.unsafe_get core_temperatures i in
    if temp > s.tmax then a.above_time <- a.above_time +. dt;
    (* Bands partition the line, so at most one matches; stopping at
       the first hit changes which comparisons run but not a single
       float operation. *)
    let b = ref 0 in
    let continue = ref true in
    while !continue && !b < n_bands do
      if
        temp >= Array.unsafe_get band_lo !b
        && temp < Array.unsafe_get band_hi !b
      then begin
        Array.unsafe_set band_time !b (Array.unsafe_get band_time !b +. dt);
        continue := false
      end
      else incr b
    done
  done

let record_step_nodes s ~dt ~temperatures ~nodes =
  let n = Array.length nodes in
  if n <> s.n_cores then
    invalid_arg "Stats.record_step_nodes: node index array length mismatch";
  let a = s.acc in
  let band_lo = s.band_lo
  and band_hi = s.band_hi
  and band_time = s.band_time in
  let n_bands = Array.length band_lo in
  let tmax = s.tmax in
  (* Single fused pass over the gather [temperatures.(nodes.(i))].
     The reference [record_step] runs a min/max pass and then a band
     pass; each accumulator below sees exactly the same operand
     sequence as there (the accumulators are independent), so the
     result is bit-identical to extracting the core temperatures and
     calling [record_step] — without the scratch extraction. *)
  let t0 = temperatures.(Array.unsafe_get nodes 0) in
  let hottest = ref t0
  and coldest = ref t0 in
  for i = 0 to n - 1 do
    let temp = temperatures.(Array.unsafe_get nodes i) in
    if i > 0 then begin
      if temp > !hottest then hottest := temp;
      if temp < !coldest then coldest := temp
    end;
    if temp > tmax then a.above_time <- a.above_time +. dt;
    let b = ref 0 in
    let continue = ref true in
    while !continue && !b < n_bands do
      if
        temp >= Array.unsafe_get band_lo !b
        && temp < Array.unsafe_get band_hi !b
      then begin
        Array.unsafe_set band_time !b (Array.unsafe_get band_time !b +. dt);
        continue := false
      end
      else incr b
    done
  done;
  let hottest = !hottest and coldest = !coldest in
  s.total_steps <- s.total_steps + 1;
  a.sim_time <- a.sim_time +. dt;
  if hottest > a.peak then a.peak <- hottest;
  let spread = hottest -. coldest in
  if spread > a.peak_gradient then a.peak_gradient <- spread;
  a.gradient_sum <- a.gradient_sum +. spread;
  if hottest > tmax then s.violation_steps <- s.violation_steps + 1

let record_power s ~dt power =
  if power < 0.0 then invalid_arg "Stats.record_power: negative power";
  s.acc.energy <- s.acc.energy +. (power *. dt)

let record_energy s j =
  if j < 0.0 then invalid_arg "Stats.record_energy: negative energy";
  s.acc.energy <- s.acc.energy +. j

let record_waiting s w =
  (* Sub-epsilon negatives are float dust from subtracting two nearby
     clocks (a window boundary vs. a per-chip step clock), not a
     scheduling bug; clamping them keeps a week-long fleet run from
     dying on a [-1e-18].  Anything below [waiting_clamp] still
     raises. *)
  let w =
    if w >= 0.0 then w
    else if w >= waiting_clamp then 0.0
    else invalid_arg "Stats.record_waiting: negative waiting time"
  in
  let a = s.acc in
  a.waiting_sum <- a.waiting_sum +. w;
  if w > a.waiting_max then a.waiting_max <- w;
  let b =
    if w < hist_min then 0
    else
      let raw = 1 + int_of_float (log (w /. hist_min) *. hist_inv_log_gamma) in
      if raw > hist_buckets - 1 then hist_buckets - 1 else raw
  in
  Array.unsafe_set s.wait_hist b (Array.unsafe_get s.wait_hist b + 1);
  s.dispatched <- s.dispatched + 1

let record_completion s = s.completed <- s.completed + 1

let equal (a : t) (b : t) =
  (* Structural equality over every accumulated figure; floats compare
     numerically (no tolerance), which is what the engine's golden
     regression test relies on. *)
  a = b

let core_time s = s.acc.sim_time *. float_of_int s.n_cores

let band_residency s =
  let total = Float.max 1e-300 (core_time s) in
  Array.to_list
    (Array.mapi (fun b band -> (band, s.band_time.(b) /. total)) s.bands)

let time_above s = s.acc.above_time /. Float.max 1e-300 (core_time s)
let violation_steps s = s.violation_steps
let total_steps s = s.total_steps
let peak_temperature s = s.acc.peak
let peak_gradient s = s.acc.peak_gradient

let mean_gradient s =
  s.acc.gradient_sum /. float_of_int (Stdlib.max 1 s.total_steps)

let mean_waiting s =
  if s.dispatched = 0 then 0.0
  else s.acc.waiting_sum /. float_of_int s.dispatched

let max_waiting s = s.acc.waiting_max

let waiting_percentile s q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Stats.waiting_percentile: quantile outside [0, 1]";
  if s.dispatched = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int s.dispatched)) in
      if r < 1 then 1 else r
    in
    let b = ref 0 and cum = ref 0 in
    while !cum < rank && !b < hist_buckets do
      cum := !cum + s.wait_hist.(!b);
      if !cum < rank then incr b
    done;
    (* Report the bucket's upper edge — a conservative (never
       understated) quantile with the sketch's ~8.5% resolution —
       tightened by the exact maximum, which also makes an all-zero
       sketch report 0 rather than [hist_min]. *)
    let edge =
      if !b = 0 then hist_min
      else hist_min *. (hist_gamma ** float_of_int !b)
    in
    Float.min edge s.acc.waiting_max
  end

let merge_into ~into s =
  if into == s then invalid_arg "Stats.merge_into: cannot merge into itself";
  if into.n_cores <> s.n_cores then
    invalid_arg "Stats.merge_into: core-count mismatch";
  (* Exact comparison is intended: merging is only defined between
     stats created with identical configuration. *)
  if not (Float.equal into.tmax s.tmax) then
    invalid_arg "Stats.merge_into: tmax mismatch";
  (* Every [t] carries the paper's bands, so the band arrays line up. *)
  for b = 0 to Array.length into.band_time - 1 do
    into.band_time.(b) <- into.band_time.(b) +. s.band_time.(b)
  done;
  for b = 0 to hist_buckets - 1 do
    into.wait_hist.(b) <- into.wait_hist.(b) + s.wait_hist.(b)
  done;
  let a = into.acc and o = s.acc in
  a.above_time <- a.above_time +. o.above_time;
  a.sim_time <- a.sim_time +. o.sim_time;
  if o.peak > a.peak then a.peak <- o.peak;
  if o.peak_gradient > a.peak_gradient then a.peak_gradient <- o.peak_gradient;
  a.gradient_sum <- a.gradient_sum +. o.gradient_sum;
  a.waiting_sum <- a.waiting_sum +. o.waiting_sum;
  if o.waiting_max > a.waiting_max then a.waiting_max <- o.waiting_max;
  a.energy <- a.energy +. o.energy;
  into.violation_steps <- into.violation_steps + s.violation_steps;
  into.total_steps <- into.total_steps + s.total_steps;
  into.dispatched <- into.dispatched + s.dispatched;
  into.completed <- into.completed + s.completed

let completed s = s.completed
let simulated_time s = s.acc.sim_time
let energy s = s.acc.energy
let average_power s = s.acc.energy /. Float.max 1e-300 s.acc.sim_time

let pp ppf s =
  Format.fprintf ppf
    "@[<v>%d tasks completed in %.1f s@,peak %.1f C, %.2f%% of core-time \
     above %.0f C (%d violating steps)@,mean waiting %.2f ms (max %.1f \
     ms)@,gradient: mean %.2f C, peak %.2f C"
    s.completed s.acc.sim_time s.acc.peak
    (100.0 *. time_above s)
    s.tmax s.violation_steps
    (mean_waiting s *. 1e3)
    (s.acc.waiting_max *. 1e3)
    (mean_gradient s) s.acc.peak_gradient;
  Format.fprintf ppf "@,energy %.1f J (average power %.2f W)@,bands:"
    s.acc.energy (average_power s);
  List.iter
    (fun ({ lo; hi }, frac) ->
      Format.fprintf ppf "@,  [%6.1f, %6.1f): %5.1f%%" lo hi (100.0 *. frac))
    (band_residency s);
  Format.fprintf ppf "@]"
