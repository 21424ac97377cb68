(* Seeded polymorphic-compare violation for test_lint.  This file is
   never built — the typed lint tests feed it through the in-process
   typechecker and expect one finding on the line marked BAD below.
   It is the shape of a real bug: a coldest-candidate helper whose
   temperature array was let-generalised, so its [<] runs the generic
   compare and boxes every float it reads. *)

let coldest idle temps =
  List.fold_left
    (fun best k ->
      (* BAD: [temps] is an ['a array], so this [<] is polymorphic. *)
      if temps.(k) < temps.(best) then k else best)
    (List.hd idle) idle

(* Clean: [min] passed as a value at a known [int] is specialized. *)
let lowest (idle : int list) = List.fold_left min (List.hd idle) idle
