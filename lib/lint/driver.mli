(** The lint driver: file discovery, parsing, syntactic and typed
    checker dispatch, suppression filtering. *)

(** Every valid suppression key. *)
val all_keys : string list

(** The syntactic checker set: domain-safety, float-equality,
    mli-coverage, plus alloc-free when a manifest is supplied. *)
val checkers : ?manifest:Manifest.t -> unit -> Checker.t list

(** The typed checker set: cross-domain capture, plus units-of-measure
    when a units manifest is supplied. *)
val typed_checkers : ?units:Units_manifest.t -> unit -> Typed_checker.t list

(** Lint one source text.  [path] decides which checkers apply (the
    [lib/] prefix marks library code); [mli_exists] feeds the
    mli-coverage checker (omit it for fixture strings).  [typed]
    selects the typed pass: [`Off] (default — fixture strings),
    [`Tree t] (a tree the caller loaded), or [`Infer] (in-process
    typecheck; silently skipped when the file is not self-contained).
    Findings are sorted and already suppression-filtered. *)
val lint_source :
  ?manifest:Manifest.t ->
  ?units:Units_manifest.t ->
  ?typed:[ `Off | `Tree of Typedtree.structure | `Infer ] ->
  ?mli_exists:bool ->
  path:string ->
  string ->
  Finding.t list

(** Manifest entries whose file is not in [seen], as findings against
    the manifest itself. *)
val manifest_unknown_files :
  Manifest.t -> seen:string list -> Finding.t list

(** The directories {!run_repo} walks by default:
    [lib], [bin], [bench], [benchmark]. *)
val default_dirs : string list

type result = {
  findings : Finding.t list;
  files : string list;  (** files linted, repo-relative, sorted *)
  typed : int;  (** how many of them got a typed pass *)
}

(** Lint the repository: walk [dirs] under [root], lint every [.ml],
    check both manifests round-trip.  When [typed] (default), index
    the build's [.cmt] artifacts and run the typed checkers on every
    file with a tree (falling back to an in-process typecheck for
    self-contained files); a run where no file at all could be typed
    gets a [typed-load] finding pointing at [dune build @check]. *)
val run_repo :
  ?dirs:string list ->
  root:string ->
  ?manifest_path:string ->
  ?units_path:string ->
  ?typed:bool ->
  unit ->
  result
