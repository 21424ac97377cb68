open Linalg

exception Rank_deficient of int

(* Householder QR.  [qr] holds R in its upper triangle and the
   essential parts of the Householder vectors below the diagonal;
   [betas] holds the reflector coefficients; [diag_v] the leading
   entries of the reflectors. *)
type t = { qr : Mat.t; betas : float array; diag_v : float array }

let factorize a =
  let m = Mat.rows a and n = Mat.cols a in
  if m < n then invalid_arg "Qr.factorize: need rows >= cols";
  let qr = Mat.copy a in
  let betas = Array.make n 0.0 in
  let diag_v = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* Build the reflector annihilating column k below the diagonal. *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let x = Mat.get qr i k in
      norm := !norm +. (x *. x)
    done;
    let norm = sqrt !norm in
    (* Bit-exact: only a literally zero column gets the identity reflector. *)
    if Float.equal norm 0.0 then begin
      betas.(k) <- 0.0;
      diag_v.(k) <- 1.0
    end
    else begin
      let akk = Mat.get qr k k in
      let alpha = if akk >= 0.0 then -.norm else norm in
      let v0 = akk -. alpha in
      (* beta = 2 / (v^T v) with v = (v0, a_{k+1..m-1,k}). *)
      let vtv = ref (v0 *. v0) in
      for i = k + 1 to m - 1 do
        let x = Mat.get qr i k in
        vtv := !vtv +. (x *. x)
      done;
      (* Bit-exact: guards the division; any nonzero vtv is usable. *)
      betas.(k) <- (if Float.equal !vtv 0.0 then 0.0 else 2.0 /. !vtv);
      diag_v.(k) <- v0;
      (* Apply the reflector to the trailing columns only: column k's
         sub-diagonal keeps storing the reflector vector, and its
         diagonal becomes alpha directly (the reflector maps the
         column to alpha * e_k by construction). *)
      for j = k + 1 to n - 1 do
        let dot = ref (v0 *. Mat.get qr k j) in
        for i = k + 1 to m - 1 do
          dot := !dot +. (Mat.get qr i k *. Mat.get qr i j)
        done;
        let s = betas.(k) *. !dot in
        Mat.set qr k j (Mat.get qr k j -. (s *. v0));
        for i = k + 1 to m - 1 do
          Mat.set qr i j (Mat.get qr i j -. (s *. Mat.get qr i k))
        done
      done;
      Mat.set qr k k alpha
    end
  done;
  { qr; betas; diag_v }

let r f =
  let n = Mat.cols f.qr in
  Mat.init n n (fun i j -> if j >= i then Mat.get f.qr i j else 0.0)

let qt_mul f b =
  let m = Mat.rows f.qr and n = Mat.cols f.qr in
  if Vec.dim b <> m then invalid_arg "Qr.qt_mul: dimension mismatch";
  let y = Vec.copy b in
  for k = 0 to n - 1 do
    (* Bit-exact: beta 0.0 marks the identity reflector stored above. *)
    if not (Float.equal f.betas.(k) 0.0) then begin
      let dot = ref (f.diag_v.(k) *. y.(k)) in
      for i = k + 1 to m - 1 do
        dot := !dot +. (Mat.get f.qr i k *. y.(i))
      done;
      let s = f.betas.(k) *. !dot in
      y.(k) <- y.(k) -. (s *. f.diag_v.(k));
      for i = k + 1 to m - 1 do
        y.(i) <- y.(i) -. (s *. Mat.get f.qr i k)
      done
    end
  done;
  y

let solve_least_squares a b =
  let n = Mat.cols a in
  let f = factorize a in
  let y = qt_mul f b in
  let scale = Float.max 1.0 (Mat.norm_inf a) in
  let x = Vec.zeros n in
  for i = n - 1 downto 0 do
    let rii = Mat.get f.qr i i in
    if Float.abs rii <= 1e-13 *. scale then raise (Rank_deficient i);
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get f.qr i j *. x.(j))
    done;
    x.(i) <- !acc /. rii
  done;
  x

let residual_norm a x b = Vec.norm2 (Vec.sub (Mat.mul_vec a x) b)
