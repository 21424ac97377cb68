type t = float array

let dim = Array.length

let check_same_dim name x y =
  if dim x <> dim y then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (dim x)
         (dim y))

let create n x =
  if n < 0 then invalid_arg "Vec.create: negative length";
  Array.make n x

let zeros n = create n 0.0
let init = Array.init
let of_list = Array.of_list
let copy = Array.copy

let basis n i =
  if i < 0 || i >= n then invalid_arg "Vec.basis: index out of range";
  let v = zeros n in
  v.(i) <- 1.0;
  v

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need at least two points";
  let step = (b -. a) /. float_of_int (n - 1) in
  init n (fun i -> a +. (float_of_int i *. step))

let to_list = Array.to_list
let map = Array.map

let map2 f x y =
  check_same_dim "map2" x y;
  Array.init (dim x) (fun i -> f x.(i) y.(i))

let add x y =
  check_same_dim "add" x y;
  Array.init (dim x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_same_dim "sub" x y;
  Array.init (dim x) (fun i -> x.(i) -. y.(i))

let scale a x = Array.map (fun xi -> a *. xi) x
let neg x = scale (-1.0) x

let mul x y =
  check_same_dim "mul" x y;
  Array.init (dim x) (fun i -> x.(i) *. y.(i))

let axpy a x y =
  check_same_dim "axpy" x y;
  Array.init (dim x) (fun i -> (a *. x.(i)) +. y.(i))

let dot x y =
  check_same_dim "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to dim x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc xi -> Float.max acc (Float.abs xi)) 0.0 x

let norm1 x = Array.fold_left (fun acc xi -> acc +. Float.abs xi) 0.0 x

let dist2 x y = norm2 (sub x y)
let sum x = Array.fold_left ( +. ) 0.0 x

let mean x =
  if dim x = 0 then invalid_arg "Vec.mean: empty vector";
  sum x /. float_of_int (dim x)

let min x =
  if dim x = 0 then invalid_arg "Vec.min: empty vector";
  Array.fold_left Float.min x.(0) x

let max x =
  if dim x = 0 then invalid_arg "Vec.max: empty vector";
  Array.fold_left Float.max x.(0) x

let argmax (x : t) =
  if dim x = 0 then invalid_arg "Vec.argmax: empty vector";
  let best = ref 0 in
  for i = 1 to dim x - 1 do
    if x.(i) > x.(!best) then best := i
  done;
  !best

let argmin (x : t) =
  if dim x = 0 then invalid_arg "Vec.argmin: empty vector";
  let best = ref 0 in
  for i = 1 to dim x - 1 do
    if x.(i) < x.(!best) then best := i
  done;
  !best

let concat = Array.append

let slice v pos len =
  if pos < 0 || len < 0 || pos + len > dim v then
    invalid_arg "Vec.slice: out of range";
  Array.sub v pos len

let fill v x = Array.fill v 0 (dim v) x

let blit ~src ~dst =
  check_same_dim "blit" src dst;
  Array.blit src 0 dst 0 (dim src)

let add_into ~dst x =
  check_same_dim "add_into" dst x;
  for i = 0 to dim dst - 1 do
    dst.(i) <- dst.(i) +. x.(i)
  done

let scale_into ~dst a =
  for i = 0 to dim dst - 1 do
    dst.(i) <- a *. dst.(i)
  done

let axpy_into ~dst a x =
  check_same_dim "axpy_into" dst x;
  for i = 0 to dim dst - 1 do
    dst.(i) <- dst.(i) +. (a *. x.(i))
  done

let approx_equal ?(tol = 1e-9) x y =
  dim x = dim y
  &&
  let ok = ref true in
  for i = 0 to dim x - 1 do
    if Float.abs (x.(i) -. y.(i)) > tol then ok := false
  done;
  !ok

let pp ppf v =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (to_list v)
