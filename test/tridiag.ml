open Linalg

exception Singular of int

let check_dims name ~lower ~diag ~upper n =
  if Vec.dim diag <> n then invalid_arg (name ^ ": bad diag length");
  if Vec.dim lower <> Stdlib.max 0 (n - 1) then
    invalid_arg (name ^ ": bad lower length");
  if Vec.dim upper <> Stdlib.max 0 (n - 1) then
    invalid_arg (name ^ ": bad upper length")

let solve ~lower ~diag ~upper ~rhs =
  let n = Vec.dim rhs in
  check_dims "Tridiag.solve" ~lower ~diag ~upper n;
  if n = 0 then [||]
  else begin
    (* Thomas algorithm with forward sweep into scratch arrays. *)
    let c' = Vec.zeros (Stdlib.max 0 (n - 1)) in
    let d' = Vec.zeros n in
    (* Bit-exact: only a literally zero pivot is singular. *)
    if Float.equal diag.(0) 0.0 then raise (Singular 0);
    if n > 1 then c'.(0) <- upper.(0) /. diag.(0);
    d'.(0) <- rhs.(0) /. diag.(0);
    for i = 1 to n - 1 do
      let denom = diag.(i) -. (lower.(i - 1) *. c'.(i - 1)) in
      (* Bit-exact: only a literally zero pivot is singular. *)
      if Float.equal denom 0.0 then raise (Singular i);
      if i < n - 1 then c'.(i) <- upper.(i) /. denom;
      d'.(i) <- (rhs.(i) -. (lower.(i - 1) *. d'.(i - 1))) /. denom
    done;
    let x = Vec.zeros n in
    x.(n - 1) <- d'.(n - 1);
    for i = n - 2 downto 0 do
      x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
    done;
    x
  end

let mul_vec ~lower ~diag ~upper x =
  let n = Vec.dim x in
  check_dims "Tridiag.mul_vec" ~lower ~diag ~upper n;
  Vec.init n (fun i ->
      let acc = ref (diag.(i) *. x.(i)) in
      if i > 0 then acc := !acc +. (lower.(i - 1) *. x.(i - 1));
      if i < n - 1 then acc := !acc +. (upper.(i) *. x.(i + 1));
      !acc)
