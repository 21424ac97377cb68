(* Order statistics for repeated measurements. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* First and third quartile by Python's [statistics.quantiles(data,
   n=4)] (the "exclusive" method), so the spreads printed here are the
   ones a reader recomputes from the result files. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile [p] in [0, 100]. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* The highest of the usual percentiles that still has at least ten
   samples beyond it, if any. *)
let tail a =
  let n = float_of_int (Array.length a) in
  List.find_opt
    (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.map (fun p -> (p, percentile a p))

(* Median, quartiles, count and tail of a sample, for result files. *)
let describe a =
  let q1, q3 = quartiles a in
  Json.Object
    ([
       ("n", Json.Int (Array.length a));
       ("median", Json.Float (median a));
       ("q1", Json.Float q1);
       ("q3", Json.Float q3);
     ]
    @
    match tail a with
    | Some (p, v) ->
        [ ("tail_percentile", Json.Float p); ("tail", Json.Float v) ]
    | None -> [])

(* A growable buffer of nanosecond durations: one per timed call
   site, recorded without boxing. *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s d =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- d;
  s.len <- s.len + 1

let total_ns s =
  let t = ref 0 in
  for i = 0 to s.len - 1 do
    t := !t + s.data.(i)
  done;
  !t

let to_floats s = Array.init s.len (fun i -> float_of_int s.data.(i))

let merge l =
  let out = samples () in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        add out s.data.(i)
      done)
    l;
  out
