open Linalg

exception Not_positive_definite of int

type t = { l : Mat.t }

let factorize a =
  if not (Mat.is_square a) then invalid_arg "Chol.factorize: not square";
  let n = Mat.rows a in
  let l = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !acc <= 0.0 then raise (Not_positive_definite i);
        Mat.set l i i (sqrt !acc)
      end
      else Mat.set l i j (!acc /. Mat.get l j j)
    done
  done;
  { l }

let factorize_jittered ?initial ?(growth = 10.0) ?(max_tries = 20) a =
  match factorize a with
  | f -> (f, 0.0)
  | exception Not_positive_definite _ ->
      let n = Mat.rows a in
      let diag_scale =
        let acc = ref 1.0 in
        for i = 0 to n - 1 do
          acc := Float.max !acc (Float.abs (Mat.get a i i))
        done;
        !acc
      in
      let initial =
        match initial with Some x -> x | None -> 1e-10 *. diag_scale
      in
      let rec attempt jitter tries =
        if tries > max_tries then raise (Not_positive_definite (-1))
        else
          let a' = Mat.copy a in
          for i = 0 to n - 1 do
            Mat.set a' i i (Mat.get a' i i +. jitter)
          done;
          match factorize a' with
          | f -> (f, jitter)
          | exception Not_positive_definite _ ->
              attempt (jitter *. growth) (tries + 1)
      in
      attempt initial 1

let preallocate n =
  if n < 0 then invalid_arg "Chol.preallocate: negative dimension";
  { l = Mat.zeros n n }

let dim { l } = Mat.rows l

(* Factorize [a + jitter*I] into the preallocated factor.  Only
   already-written entries of [l] are read, so a half-finished factor
   from a failed attempt never leaks into the next one. *)
let factorize_attempt_into { l } ~jitter a =
  let n = Mat.rows a in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j +. if i = j then jitter else 0.0) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        (* lint: alloc-free the exception payload allocates only on the abandoned attempt *)
        if !acc <= 0.0 then raise (Not_positive_definite i);
        Mat.set l i i (sqrt !acc)
      end
      else Mat.set l i j (!acc /. Mat.get l j j)
    done
  done

let factorize_jittered_into ?initial ?(growth = 10.0) ?(max_tries = 20) f a =
  if not (Mat.is_square a) then
    invalid_arg "Chol.factorize_jittered_into: not square";
  if Mat.rows a <> dim f then
    invalid_arg "Chol.factorize_jittered_into: factor dimension mismatch";
  match factorize_attempt_into f ~jitter:0.0 a with
  | () -> (0.0, 1)
  | exception Not_positive_definite _ ->
      let n = Mat.rows a in
      let diag_scale =
        let acc = ref 1.0 in
        for i = 0 to n - 1 do
          acc := Float.max !acc (Float.abs (Mat.get a i i))
        done;
        !acc
      in
      let initial =
        match initial with Some x -> x | None -> 1e-10 *. diag_scale
      in
      let rec attempt jitter tries =
        if tries > max_tries then raise (Not_positive_definite (-1))
        else
          match factorize_attempt_into f ~jitter a with
          | () -> (jitter, tries + 1)
          | exception Not_positive_definite _ ->
              attempt (jitter *. growth) (tries + 1)
      in
      attempt initial 1

let solve_factorized_into { l } b ~dst =
  let n = Mat.rows l in
  if Vec.dim b <> n then invalid_arg "Chol.solve_factorized_into: dimension mismatch";
  if Vec.dim dst <> n then invalid_arg "Chol.solve_factorized_into: bad destination";
  if not (b == dst) then Vec.blit ~src:b ~dst;
  (* L y = b, in place: dst.(i) only reads already-overwritten slots. *)
  for i = 0 to n - 1 do
    let acc = ref dst.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get l i j *. dst.(j))
    done;
    dst.(i) <- !acc /. Mat.get l i i
  done;
  (* L^T x = y, in place, descending. *)
  for i = n - 1 downto 0 do
    let acc = ref dst.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l j i *. dst.(j))
    done;
    dst.(i) <- !acc /. Mat.get l i i
  done

let solve_factorized { l } b =
  let n = Mat.rows l in
  if Vec.dim b <> n then invalid_arg "Chol.solve: dimension mismatch";
  (* L y = b. *)
  let y = Vec.zeros n in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get l i j *. y.(j))
    done;
    y.(i) <- !acc /. Mat.get l i i
  done;
  (* L^T x = y. *)
  let x = Vec.zeros n in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l j i *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

let solve a b = solve_factorized (factorize a) b

let lower { l } = Mat.copy l

let log_det { l } =
  let acc = ref 0.0 in
  for i = 0 to Mat.rows l - 1 do
    acc := !acc +. log (Mat.get l i i)
  done;
  2.0 *. !acc
