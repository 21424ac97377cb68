(* Typed-tree acquisition for the typed checkers.

   Two sources, in order of preference:

   - [.cmt] artifacts written by the build (`dune build @check`; dune
     passes -bin-annot unconditionally, so any full build produces
     them too).  These carry the real cross-module types — a closure
     capturing a [Sim.Stats.t] is seen with that type, not a guess.
   - an in-process typecheck of the parsed source, used for files the
     build does not know (test fixture trees, temp repos).  This only
     succeeds for self-contained files; a file that fails to
     typecheck standalone is silently skipped, and the driver reports
     how many files got a typed tree so a silent everything-skipped
     run is visible.

   Both paths share the compiler's global state (load path, env
   caches); the driver is single-domain, so plain initialization-once
   is enough. *)

let initialized = Atomic.make false

let ensure_init () =
  if not (Atomic.get initialized) then begin
    Atomic.set initialized true;
    (* Puts the stdlib on the load path so [Compmisc.initial_env]
       (and Envaux reconstruction) can resolve Stdlib's cmi. *)
    Compmisc.init_path ()
  end

let normalize_source src =
  Checker.normalize_path src

(* Directories holding .cmt files under [root] (preferring
   [root/_build/default] when present — the layout `make lint` sees;
   the self-lint rule already runs inside the build dir).  Dot
   directories are where dune keeps .objs, so unlike source discovery
   this walk must descend into them. *)
let cmt_base root =
  let b = Filename.concat (Filename.concat root "_build") "default" in
  if Sys.file_exists b && Sys.is_directory b then b else root

(* Index every compiled implementation: source path -> typed tree.
   The directories that contained cmts are appended to the load path
   so Envaux can reconstruct environments (cross-module record
   lookups in the capture checker). *)
let index ~root =
  ensure_init ();
  let tbl = Hashtbl.create 64 in
  let cmt_dirs = Hashtbl.create 16 in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            let abs = Filename.concat dir name in
            (* Test runs create and remove their own _build directories
               while the self-lint walks the build tree, so the names are
               skipped before any stat, and an entry that vanished after
               the readdir is skipped too. *)
            let is_dir () =
              try Sys.is_directory abs with Sys_error _ -> false
            in
            if name = "_build" || name = ".git" then ()
            else if is_dir () then walk abs
            else if Filename.check_suffix name ".cmt" then
              match Cmt_format.read_cmt abs with
              | {
                  Cmt_format.cmt_annots = Cmt_format.Implementation str;
                  cmt_sourcefile = Some src;
                  _;
                } ->
                  let src = normalize_source src in
                  if Filename.check_suffix src ".ml" then begin
                    Hashtbl.replace tbl src str;
                    Hashtbl.replace cmt_dirs dir ()
                  end
              | _ -> ()
              | exception _ ->
                  (* Different compiler version or truncated file —
                     never fail the lint run over a stale artifact. *)
                  ())
          names
  in
  let base = cmt_base root in
  if Sys.file_exists base && Sys.is_directory base then walk base;
  Hashtbl.iter (fun d () -> Load_path.add_dir d) cmt_dirs;
  tbl

(* In-process typecheck of an already-parsed structure.  Global
   compiler state means this must not run concurrently; the driver is
   sequential. *)
let type_structure ast =
  ensure_init ();
  match Typemod.type_structure (Compmisc.initial_env ()) ast with
  | tstr, _sig, _names, _shape, _env -> Ok tstr
  | exception e -> Error e

(* Render a typechecking exception as (line, col, message), for
   callers that want to surface it as a finding. *)
let describe_error e =
  match Location.error_of_exn e with
  | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      let buf = Buffer.create 64 in
      let ppf = Format.formatter_of_buffer buf in
      report.Location.main.Location.txt ppf;
      Format.pp_print_flush ppf ();
      (Checker.line_of loc, Checker.col_of loc, Buffer.contents buf)
  | Some `Already_displayed | None -> (1, 0, Printexc.to_string e)

(* Best-effort type-declaration lookup: the node's own env works for
   in-process trees; cmt-loaded envs are summaries and need Envaux
   (which in turn needs the load path populated by {!index}).  Any
   failure is [None] — the capture checker then falls back to its
   structural type-name list. *)
let find_type_decl env path =
  match Env.find_type path env with
  | decl -> Some decl
  | exception _ -> (
      match Env.find_type path (Envaux.env_of_only_summary env) with
      | decl -> Some decl
      | exception _ -> None)
