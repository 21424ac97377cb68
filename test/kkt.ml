open Linalg

type residuals = {
  stationarity : float;
  primal_infeasibility : float;
  dual_infeasibility : float;
  complementarity : float;
}

let residuals (p : Quad.problem) x lambda =
  let m = Array.length p.Quad.constraints in
  if Vec.dim lambda <> m then invalid_arg "Kkt.residuals: bad dual length";
  let grad_l = Quad.grad p.Quad.objective x in
  Array.iteri
    (fun j c -> Vec.axpy_into ~dst:grad_l lambda.(j) (Quad.grad c x))
    p.Quad.constraints;
  let primal =
    Array.fold_left
      (fun acc c -> Float.max acc (Quad.eval c x))
      0.0 p.Quad.constraints
  in
  let dual =
    Array.fold_left (fun acc l -> Float.max acc (-.l)) 0.0 lambda
  in
  let comp =
    let acc = ref 0.0 in
    Array.iteri
      (fun j c ->
        acc := Float.max !acc (Float.abs (lambda.(j) *. Quad.eval c x)))
      p.Quad.constraints;
    !acc
  in
  {
    stationarity = Vec.norm_inf grad_l;
    primal_infeasibility = primal;
    dual_infeasibility = dual;
    complementarity = comp;
  }

let max_residual r =
  Float.max r.stationarity
    (Float.max r.primal_infeasibility
       (Float.max r.dual_infeasibility r.complementarity))

let pp ppf r =
  Format.fprintf ppf
    "stationarity=%.3e primal=%.3e dual=%.3e complementarity=%.3e"
    r.stationarity r.primal_infeasibility r.dual_infeasibility
    r.complementarity
