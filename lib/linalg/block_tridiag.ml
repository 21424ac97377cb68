(* Block-tridiagonal Cholesky.  The factor of a block-tridiagonal SPD
   matrix has the same block-lower-band sparsity as the input (no
   fill-in beyond the band), so the standard column-oriented Cholesky
   recurrences apply verbatim with every loop clipped to the band:

     row i only meets columns j >= off(blk(i) - 1), and the inner
     products over k start at the same clip (for j <= i the binding
     constraint is blk(k) >= blk(i) - 1, since blk(j) >= blk(i) - 1
     already implies blk(j) - blk(k) <= 1).

   [bt_blk] maps an index to its block and [bt_off] holds the K+1
   prefix offsets, so the clips are O(1) array reads in the inner
   loops. *)

type t = {
  bt_sizes : int array;
  bt_off : int array;  (* length K+1; bt_off.(K) = n *)
  bt_blk : int array;  (* length n; block index of each row *)
  bt_l : float array;  (* the factor, row-major n x n *)
}

let preallocate sizes =
  if Array.length sizes = 0 then
    invalid_arg "Block_tridiag.preallocate: empty partition";
  Array.iter
    (fun s ->
      if s <= 0 then
        invalid_arg "Block_tridiag.preallocate: non-positive block size")
    sizes;
  let k = Array.length sizes in
  let off = Array.make (k + 1) 0 in
  for b = 0 to k - 1 do
    off.(b + 1) <- off.(b) + sizes.(b)
  done;
  let n = off.(k) in
  let blk = Array.make n 0 in
  for b = 0 to k - 1 do
    for i = off.(b) to off.(b + 1) - 1 do
      blk.(i) <- b
    done
  done;
  { bt_sizes = Array.copy sizes; bt_off = off; bt_blk = blk;
    bt_l = Array.make (n * n) 0.0 }

let dim t = Array.length t.bt_blk

let sizes t = Array.copy t.bt_sizes

let factor t =
  let n = dim t in
  Mat.init n n (fun i j -> t.bt_l.((i * n) + j))

let check_input name t a =
  if Mat.rows a <> dim t || Mat.cols a <> dim t then
    invalid_arg ("Block_tridiag." ^ name ^ ": dimension mismatch")

(* The dimensions are checked once by the callers, so every read and
   write below is in range: indices stay in [0, n) and [blk]/[off]
   have the lengths [preallocate] gave them.

   Only already-written entries of the factor are read, so a
   half-finished factor from a failed attempt never leaks into the
   next one (same contract as Chol.factorize_attempt_into). *)
let attempt t ~jitter a =
  let n = Array.length t.bt_blk in
  let l = t.bt_l and off = t.bt_off and blk = t.bt_blk in
  let a = Mat.data a in
  for i = 0 to n - 1 do
    let bi = Array.unsafe_get blk i in
    let lo = if bi = 0 then 0 else Array.unsafe_get off (bi - 1) in
    let ri = i * n in
    for j = lo to i do
      let rj = j * n in
      let acc =
        ref (Array.unsafe_get a (ri + j) +. if i = j then jitter else 0.0)
      in
      for k = lo to j - 1 do
        acc :=
          !acc -. (Array.unsafe_get l (ri + k) *. Array.unsafe_get l (rj + k))
      done;
      if i = j then begin
        (* lint: alloc-free the exception payload allocates only on the abandoned attempt *)
        if !acc <= 0.0 then raise (Chol.Not_positive_definite i);
        Array.unsafe_set l (ri + i) (sqrt !acc)
      end
      else Array.unsafe_set l (ri + j) (!acc /. Array.unsafe_get l (rj + j))
    done
  done

let factorize_attempt_into t ~jitter a =
  check_input "factorize_attempt_into" t a;
  attempt t ~jitter a

let factorize_jittered_into ?initial ?(growth = 10.0) ?(max_tries = 20) t a =
  check_input "factorize_jittered_into" t a;
  match attempt t ~jitter:0.0 a with
  | () -> (0.0, 1)
  | exception Chol.Not_positive_definite _ ->
      let n = dim t in
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
      let rec retry jitter tries =
        if tries > max_tries then raise (Chol.Not_positive_definite (-1))
        else
          match attempt t ~jitter a with
          | () -> (jitter, tries + 1)
          | exception Chol.Not_positive_definite _ ->
              retry (jitter *. growth) (tries + 1)
      in
      retry initial 1

let solve_factorized_into t b ~dst =
  let n = Array.length t.bt_blk in
  if Vec.dim b <> n then
    invalid_arg "Block_tridiag.solve_factorized_into: dimension mismatch";
  if Vec.dim dst <> n then
    invalid_arg "Block_tridiag.solve_factorized_into: bad destination";
  let l = t.bt_l and off = t.bt_off and blk = t.bt_blk in
  let nblocks = Array.length t.bt_sizes in
  if not (b == dst) then Vec.blit ~src:b ~dst;
  (* L y = b, in place: dst.(i) only reads already-overwritten slots,
     and only in-band columns of row i. *)
  for i = 0 to n - 1 do
    let bi = Array.unsafe_get blk i in
    let lo = if bi = 0 then 0 else Array.unsafe_get off (bi - 1) in
    let ri = i * n in
    let acc = ref (Array.unsafe_get dst i) in
    for j = lo to i - 1 do
      acc := !acc -. (Array.unsafe_get l (ri + j) *. Array.unsafe_get dst j)
    done;
    Array.unsafe_set dst i (!acc /. Array.unsafe_get l (ri + i))
  done;
  (* L^T x = y, in place, descending; row i only meets rows up to the
     end of block bi + 1. *)
  for i = n - 1 downto 0 do
    let bi = Array.unsafe_get blk i in
    let hi =
      (if bi + 1 >= nblocks then Array.unsafe_get off nblocks
       else Array.unsafe_get off (bi + 2))
      - 1
    in
    let acc = ref (Array.unsafe_get dst i) in
    for j = i + 1 to hi do
      acc :=
        !acc -. (Array.unsafe_get l ((j * n) + i) *. Array.unsafe_get dst j)
    done;
    Array.unsafe_set dst i (!acc /. Array.unsafe_get l ((i * n) + i))
  done
