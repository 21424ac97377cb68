(** Polymorphic-compare checker over typed trees: flags [Stdlib]'s
    [<], [>], [<=], [>=], [=], [<>], [compare], [min] and [max] in
    [lib/] wherever the operand type at the use site is a bare type
    variable, so the generic compare would box float operands.  Only
    that case is flagged.  A compare on a structured type that
    contains a variable (['a list], ['a option], a tuple) is not: the
    compiler specializes compares on base types only, so it is generic
    at every instance and no annotation would change it. *)

val checker : Typed_checker.t
