(** The alloc-free manifest: the checked-in list of hot functions
    whose bodies must contain no syntactic allocation site.

    Line format: [FILE DOTTED.PATH], e.g.
    [lib/sim/chip.ml run_loop.step_once].  ['#'] starts a comment.  Path
    segments name toplevel [let]s, members of literal
    [module M = struct ... end], and — after the first value segment —
    nested [let ... in] bindings. *)

type entry = { file : string; funcpath : string list; line : int }
type t = { path : string; entries : entry list }

(** Parse manifest text; malformed lines come back as
    [(line, message)] errors alongside the surviving entries. *)
val parse : path:string -> string -> t * (int * string) list

(** Read and {!parse} a manifest file. *)
val load : string -> t * (int * string) list

val entries_for : t -> string -> entry list

(** The distinct files the manifest mentions, sorted. *)
val files : t -> string list
