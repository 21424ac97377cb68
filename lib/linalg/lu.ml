exception Singular of int

(* Doolittle LU with partial pivoting.  [lu] stores L (unit diagonal,
   strictly lower part) and U (upper part) packed in one matrix; [perm]
   records the row exchanges. *)
type t = { lu : Mat.t; perm : int array }

let factorize a =
  if not (Mat.is_square a) then invalid_arg "Lu.factorize: not square";
  let n = Mat.rows a in
  let tol = 1e-13 *. Float.max 1.0 (Mat.norm_inf a) in
  let lu = Mat.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* Find the pivot row. *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !piv k) then
        piv := i
    done;
    if Float.abs (Mat.get lu !piv k) <= tol then raise (Singular k);
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = Mat.get lu k j in
        Mat.set lu k j (Mat.get lu !piv j);
        Mat.set lu !piv j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t
    end;
    let pivot = Mat.get lu k k in
    for i = k + 1 to n - 1 do
      let m = Mat.get lu i k /. pivot in
      Mat.set lu i k m;
      (* Bit-exact: skipping only true zeros keeps the update exact. *)
      if not (Float.equal m 0.0) then
        for j = k + 1 to n - 1 do
          Mat.set lu i j (Mat.get lu i j -. (m *. Mat.get lu k j))
        done
    done
  done;
  { lu; perm }

let solve_factorized f b =
  let n = Mat.rows f.lu in
  if Vec.dim b <> n then invalid_arg "Lu.solve: dimension mismatch";
  (* Forward substitution with permuted b: L y = P b. *)
  let y = Vec.zeros n in
  for i = 0 to n - 1 do
    let acc = ref b.(f.perm.(i)) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get f.lu i j *. y.(j))
    done;
    y.(i) <- !acc
  done;
  (* Back substitution: U x = y. *)
  let x = Vec.zeros n in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get f.lu i j *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get f.lu i i
  done;
  x

let solve a b = solve_factorized (factorize a) b
