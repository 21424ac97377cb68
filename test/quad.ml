open Linalg

(* [p = None] encodes an affine function; this keeps gradient and
   Hessian accumulation cheap for the (many) linear constraints of the
   thermal models. *)
type t = { n : int; p : Mat.t option; q : Vec.t; r : float }

let affine q r = { n = Vec.dim q; p = None; q = Vec.copy q; r }

let linear_coord n i c =
  if i < 0 || i >= n then invalid_arg "Quad.linear_coord: index out of range";
  let q = Vec.zeros n in
  q.(i) <- c;
  { n; p = None; q; r = 0.0 }

let quadratic p q r =
  let n = Vec.dim q in
  if Mat.rows p <> n || Mat.cols p <> n then
    invalid_arg "Quad.quadratic: shape mismatch";
  { n; p = Some (Mat.symmetrize p); q = Vec.copy q; r }

let square_of_affine q r =
  let n = Vec.dim q in
  (* (q.x + r)^2 = 1/2 x (2 q q^T) x + 2 r q . x + r^2 *)
  { n; p = Some (Mat.scale 2.0 (Mat.outer q q)); q = Vec.scale (2.0 *. r) q;
    r = r *. r }

let dim f = f.n

let check_dim name f g =
  if f.n <> g.n then invalid_arg ("Quad." ^ name ^ ": dimension mismatch")

let add f g =
  check_dim "add" f g;
  let p =
    match (f.p, g.p) with
    | None, None -> None
    | Some p, None | None, Some p -> Some (Mat.copy p)
    | Some p1, Some p2 -> Some (Mat.add p1 p2)
  in
  { n = f.n; p; q = Vec.add f.q g.q; r = f.r +. g.r }

let scale c f =
  {
    f with
    p = (match f.p with None -> None | Some p -> Some (Mat.scale c p));
    q = Vec.scale c f.q;
    r = c *. f.r;
  }

let sub f g = add f (scale (-1.0) g)
let add_constant f c = { f with r = f.r +. c }

let is_affine f = f.p = None

let eval f x =
  if Vec.dim x <> f.n then invalid_arg "Quad.eval: dimension mismatch";
  let quad_term =
    match f.p with
    | None -> 0.0
    | Some p -> 0.5 *. Vec.dot x (Mat.mul_vec p x)
  in
  quad_term +. Vec.dot f.q x +. f.r

let grad f x =
  if Vec.dim x <> f.n then invalid_arg "Quad.grad: dimension mismatch";
  match f.p with
  | None -> Vec.copy f.q
  | Some p -> Vec.add (Mat.mul_vec p x) f.q

let hess f =
  match f.p with None -> Mat.zeros f.n f.n | Some p -> Mat.copy p

let hess_is_psd ?(tol = 1e-9) f =
  match f.p with
  | None -> true
  | Some p ->
      let shifted = Mat.copy p in
      for i = 0 to f.n - 1 do
        Mat.set shifted i i (Mat.get shifted i i +. tol)
      done;
      (match Chol.factorize shifted with
      | _ -> true
      | exception Chol.Not_positive_definite _ -> false)

let linear_part f = Vec.copy f.q
let constant_part f = f.r

type problem = { objective : t; constraints : t array }
