(* Polymorphic-compare checker (typed).

   [Stdlib]'s comparison operators are specialized by the compiler
   when the operand type is known at the call site: on [float] they
   become a float compare over unboxed values, on [int] an integer
   compare.  When the operand type is a type variable — typically a
   helper let-generalised over ['a array] — the call falls back to
   the generic [caml_compare] family, and on a float array every
   element read is boxed first.  That is a silent allocation and a
   large constant factor in a hot loop, and the fix is a type
   annotation.

   The checker visits every use of [Stdlib]'s [<], [>], [<=], [>=],
   [=], [<>], [compare], [min] and [max] in library code, applied or
   passed as a value, and flags it when the first parameter of its
   instantiated type is a type variable.  Uses that resolve anywhere
   else ([Float.min], a local [( < )]) are not Stdlib's and are left
   alone.  Only a bare type variable is flagged: a compare on a
   structured type such as ['a list] is generic at every instance (the
   compiler specializes base types only), so no annotation would
   change it. *)

open Typedtree

let operators = [ "<"; ">"; "<="; ">="; "="; "<>"; "compare"; "min"; "max" ]

(* First parameter of an arrow type, if it is a type variable. *)
let variable_operand ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> (
      match Types.get_desc a with
      | Types.Tvar _ | Types.Tunivar _ -> true
      | _ -> false)
  | _ -> false

let check ~(emit : Checker.emit) (src : Typed_checker.source) =
  if src.Typed_checker.in_lib then begin
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_ident (p, _, _) -> (
                match Typed_checker.last_two p with
                | Some "Stdlib", name
                  when List.mem name operators && variable_operand e.exp_type
                  ->
                    emit ~line:(Checker.line_of e.exp_loc)
                      ~col:(Checker.col_of e.exp_loc)
                      (Printf.sprintf
                         "polymorphic '%s' on a type variable: the generic \
                          compare boxes float operands; annotate the operand \
                          type (e.g. Vec.t) or use Float/Int compare"
                         name)
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it src.Typed_checker.str
  end

let checker : Typed_checker.t =
  {
    Typed_checker.id = "poly-compare";
    keys = [ "poly-compare" ];
    describe =
      "polymorphic compare: Stdlib comparison operators, compare, min and \
       max in lib/ applied at a type variable (boxes float operands)";
    check = (fun ~emit src -> check ~emit src);
  }
