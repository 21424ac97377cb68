(* The lint driver: discover sources, parse them with compiler-libs,
   run the syntactic checker set, then the typed checker set on
   whatever typed trees are available (.cmt artifacts from the build,
   or an in-process typecheck for self-contained files), filter
   suppressions, apply the baseline, sort. *)

let all_keys =
  [
    "domain-safety";
    "domain-local";
    "float-equality";
    "alloc-free";
    "internal";
    "units";
    "capture";
    "cross-domain";
    "poly-compare";
  ]

let base_checkers =
  [ Domain_safety.checker; Float_equality.checker; Mli_coverage.checker ]

let checkers ?manifest () =
  base_checkers
  @ match manifest with None -> [] | Some m -> [ Alloc_free.checker m ]

let typed_checkers ?units () =
  Capture.checker :: Poly_compare.checker
  :: (match units with None -> [] | Some u -> [ Units.checker u ])

let parse_structure ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      Error (Checker.line_of loc, Checker.col_of loc, "syntax error")
  | exception Lexer.Error (_, loc) ->
      Error (Checker.line_of loc, Checker.col_of loc, "lexical error")
  | exception e -> Error (1, 0, "cannot parse: " ^ Printexc.to_string e)

(* Lint one already-read source file.  [typed] selects the typed pass:
   [`Off] (fixture-string default), [`Tree t] (a .cmt tree from the
   build), or [`Infer] (typecheck in-process; files that only make
   sense inside the build are silently skipped, and the boolean in the
   result says whether the typed pass ran). *)
let lint_one ?manifest ?units ?(typed = `Off) ?mli_exists ~path text =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let sup = Suppress.scan ~keys:all_keys text in
  List.iter
    (fun (line, what) ->
      add (Finding.v ~file:path ~line ~checker:"suppression" what))
    (Suppress.problems sup);
  let in_lib = Checker.in_dir ~dir:"lib" path in
  let emit_for id keys =
    fun ?file ?(suppress_at = []) ~line ?(col = 0) message ->
      match file with
      | Some file ->
          (* Findings re-homed to another file (manifest errors)
             bypass the source file's suppression index. *)
          add (Finding.v ~file ~line ~col ~checker:id message)
      | None ->
          let suppressed =
            List.exists
              (fun l -> Suppress.active sup ~keys ~line:l)
              (line :: suppress_at)
          in
          if not suppressed then
            add (Finding.v ~file:path ~line ~col ~checker:id message)
  in
  let typed_ran = ref false in
  (match parse_structure ~path text with
  | Error (line, col, msg) ->
      add (Finding.v ~file:path ~line ~col ~checker:"parse-error" msg)
  | Ok ast ->
      let source =
        {
          Checker.path;
          text;
          ast;
          in_lib;
          mli_exists;
          internal = Suppress.file_has sup ~key:"internal";
        }
      in
      List.iter
        (fun (c : Checker.t) ->
          c.Checker.check ~emit:(emit_for c.Checker.id c.Checker.keys) source)
        (checkers ?manifest ());
      let tree =
        match typed with
        | `Off -> None
        | `Tree t -> Some t
        | `Infer -> (
            match Typed_load.type_structure ast with
            | Ok t -> Some t
            | Error _ -> None)
      in
      Option.iter
        (fun str ->
          typed_ran := true;
          let tsource = { Typed_checker.path; str; in_lib } in
          List.iter
            (fun (c : Typed_checker.t) ->
              c.Typed_checker.check
                ~emit:(emit_for c.Typed_checker.id c.Typed_checker.keys)
                tsource)
            (typed_checkers ?units ()))
        tree);
  (List.sort Finding.compare !findings, !typed_ran)

let lint_source ?manifest ?units ?typed ?mli_exists ~path text =
  fst (lint_one ?manifest ?units ?typed ?mli_exists ~path text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every .ml under [dir] (recursively), repo-relative with '/'
   separators, sorted for deterministic output.  [_build] and dotted
   directories are skipped. *)
let discover ~root dirs =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun name ->
          if String.length name > 0 && name.[0] <> '.' && name <> "_build"
          then begin
            let rel' = rel ^ "/" ^ name in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then walk rel'
            else if Filename.check_suffix name ".ml" then acc := rel' :: !acc
          end)
        (Sys.readdir abs)
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    dirs;
  List.sort String.compare !acc

let manifest_unknown_files manifest ~seen =
  List.concat_map
    (fun { Manifest.file; line; _ } ->
      if List.mem file seen then []
      else
        [
          Finding.v ~file:manifest.Manifest.path ~line ~checker:Alloc_free.id
            (Printf.sprintf
               "manifest names unknown file '%s' — update the entry when a \
                hot file moves"
               file);
        ])
    manifest.Manifest.entries

let default_dirs = [ "lib"; "bin"; "bench"; "benchmark" ]

(* cmt source keys may be repo-relative (dune's layout) or longer
   paths; accept an exact match or a unique "/"-suffix match. *)
let lookup_tree tbl path =
  match Hashtbl.find_opt tbl path with
  | Some t -> Some t
  | None ->
      let suffix = "/" ^ path in
      Hashtbl.fold
        (fun key t acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if
                String.length key > String.length suffix
                && String.sub key
                     (String.length key - String.length suffix)
                     (String.length suffix)
                   = suffix
              then Some t
              else None)
        tbl None

type result = { findings : Finding.t list; files : string list; typed : int }

let run_repo ?(dirs = default_dirs) ~root ?manifest_path ?units_path
    ?(typed = true) () =
  let load_with_errors ~checker ~what path load =
    let abs = if Filename.is_relative path then Filename.concat root path else path in
    if not (Sys.file_exists abs) then
      (None, [ Finding.v ~file:path ~line:1 ~checker (what ^ " not found") ])
    else
      let m, errors = load abs in
      ( Some m,
        List.map
          (fun (line, msg) -> Finding.v ~file:path ~line ~checker msg)
          errors )
  in
  let manifest, manifest_findings =
    match manifest_path with
    | None -> (None, [])
    | Some p ->
        let m, errs =
          load_with_errors ~checker:Alloc_free.id ~what:"manifest file" p
            (fun abs ->
              let m, errors = Manifest.load abs in
              ({ m with Manifest.path = p }, errors))
        in
        (m, errs)
  in
  let units, units_findings =
    match units_path with
    | None -> (None, [])
    | Some p ->
        load_with_errors ~checker:"units" ~what:"units manifest file" p
          (fun abs ->
            let m, errors = Units_manifest.load abs in
            ({ m with Units_manifest.path = p }, errors))
  in
  let files = discover ~root dirs in
  let trees = if typed then Typed_load.index ~root else Hashtbl.create 1 in
  let typed_count = ref 0 in
  let per_file =
    List.concat_map
      (fun path ->
        let abs = Filename.concat root path in
        let mli = Filename.chop_suffix abs ".ml" ^ ".mli" in
        let typed_mode =
          if not typed then `Off
          else
            match lookup_tree trees path with
            | Some t -> `Tree t
            | None -> `Infer
        in
        let fs, ran =
          lint_one ?manifest ?units ~typed:typed_mode
            ~mli_exists:(Sys.file_exists mli) ~path (read_file abs)
        in
        if ran then incr typed_count;
        fs)
      files
  in
  let unknown =
    (match manifest with
    | None -> []
    | Some m -> manifest_unknown_files m ~seen:files)
    @
    match units with
    | None -> []
    | Some u ->
        List.map
          (fun (line, msg) ->
            Finding.v ~file:u.Units_manifest.path ~line ~checker:"units" msg)
          (Units_manifest.unknown_files u ~seen:files)
  in
  let typed_warn =
    if typed && files <> [] && !typed_count = 0 then
      [
        Finding.v ~file:"(typed)" ~line:1 ~checker:"typed-load"
          "no typed trees available — run `dune build @check` so the typed \
           checkers (units, capture) can see real cross-module types";
      ]
    else []
  in
  {
    findings =
      List.sort Finding.compare
        (manifest_findings @ units_findings @ per_file @ unknown @ typed_warn);
    files;
    typed = !typed_count;
  }
