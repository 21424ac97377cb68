(* Host-speed calibration.

   The benchmark was built on a shared virtual machine whose CPU
   switches, for minutes at a time, between two speeds about 1.8x apart,
   and slows everything alike: building the machine, conic solves and the
   engine's step loop alike (thread CPU time slows with it, so it is
   no way out).  A median cannot remove a slowdown that lasts the whole
   run.  So every timing sample is taken together with a fixed reference
   loop, run right before and right after it, and scaled by how much
   slower than nominal that loop ran:

     calibrated = measured * nominal_reference / measured_reference

   The loop uses no library code, so a change to the library moves the
   calibrated numbers exactly as it moves the raw ones.  The result
   files keep both. *)

let n = 64

(* About 65k multiply-adds over a 32 KB matrix: L1/L2-resident float
   work, like the solver's and the step loop's inner loops. *)
let reference_loop m v w =
  (* Restart from the same vector every time, so the values never
     decay into (slow) subnormals. *)
  for i = 0 to n - 1 do
    v.(i) <- float_of_int (i land 3)
  done;
  for _ = 1 to 16 do
    for i = 0 to n - 1 do
      let row = m.(i) in
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. (row.(j) *. v.(j))
      done;
      w.(i) <- !s
    done;
    Array.blit w 0 v 0 n
  done

(* Nominal time of one reference loop, ns: its speed on the build host
   when that host ran at full speed.  Only a unit — comparisons between
   runs do not depend on it. *)
let nominal_ns = 70_000.0

type t = { m : float array array; v : float array; w : float array }

let create () =
  {
    m = Array.init n (fun i -> Array.init n (fun j -> float_of_int ((i + j) land 7) /. (4.0 *. float_of_int n)));
    v = Array.make n 0.0;
    w = Array.make n 0.0;
  }

(* The fastest of three reference loops, ns: one timer interrupt cannot
   move it. *)
let reference_ns c =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = Clock.now_ns () in
    reference_loop c.m c.v c.w;
    best := Stdlib.min !best (Clock.now_ns () - t0)
  done;
  float_of_int !best

(* [time c f]: [f ()], its measured seconds, and the host-speed factor
   (nominal over measured reference time, the mean of the loops right
   before and right after [f]). *)
let time c f =
  let r0 = reference_ns c in
  let r, s = Clock.time f in
  let r1 = reference_ns c in
  (r, s, nominal_ns /. (0.5 *. (r0 +. r1)))
