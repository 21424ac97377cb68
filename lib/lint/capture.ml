(* Cross-domain capture checker (typed).

   Closures handed to Parallel.Pool.map_rows / Parallel.Pool.map /
   Domain.spawn execute on other domains.  This checker walks the free
   variables of each shipped closure — transitively through same-file
   helper functions it calls — and flags any capture whose type is
   mutable shared state:

   - ref cells, bytes, Buffer.t, Hashtbl.t, Queue.t, Stack.t;
   - records with mutable fields, same-file (from the tree's own type
     declarations) or cross-module (resolved through the node
     environment when the build left us enough cmi context).

   Atomic.t, Mutex.t, Condition.t and Semaphore.* are the blessed
   sharing primitives and are exempt.  Arrays are deliberately NOT
   flagged: disjoint-index sharding of result arrays is this repo's
   core parallel idiom (see lib/parallel/pool.mli), and the syntactic
   domain-safety checker already polices the patterns around it.

   Boundary calls are recognised by their final two path segments, so
   the module must be spelled at the call site — pool.ml's own
   internal recursion into [map_rows] is not a boundary.  Free
   variables of other-module functions are not chased (shallow past
   the file edge); cross-file mutable state still gets caught when the
   closure touches it directly. *)

open Typedtree

let boundaries = [ ("Pool", "map_rows"); ("Pool", "map"); ("Domain", "spawn") ]

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* What a captured variable is, judged by its type; [None] = benign. *)
let mutability ~mutable_records env ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      if Path.same p Predef.path_bytes then Some "bytes"
      else
        match Typed_checker.last_two p with
        | (Some "Stdlib" | None), "ref" -> Some "a ref cell"
        | Some "Bytes", "t" -> Some "bytes"
        | Some "Buffer", "t" -> Some "a Buffer.t"
        | Some "Hashtbl", "t" -> Some "a Hashtbl.t"
        | Some "Queue", "t" -> Some "a Queue.t"
        | Some "Stack", "t" -> Some "a Stack.t"
        | Some ("Atomic" | "Mutex" | "Condition" | "Semaphore"), _ -> None
        | _ -> (
            let mutable_record () =
              Some
                (Printf.sprintf "a mutable record (%s)"
                   (String.concat "." (Typed_checker.path_segments p)))
            in
            match p with
            | Path.Pident id
              when Hashtbl.mem mutable_records (Ident.unique_name id) ->
                mutable_record ()
            | _ -> (
                match Typed_load.find_type_decl env p with
                | Some { Types.type_kind = Types.Type_record (lds, _); _ }
                  when List.exists
                         (fun ld -> ld.Types.ld_mutable = Asttypes.Mutable)
                         lds ->
                    mutable_record ()
                | _ -> None)))
  | _ -> None

(* The values [expr0] captures, as [(key, name, type, env, via)]: the
   idents it uses but does not bind, opening same-file function
   bindings among them in turn ([binding_tbl] maps ident unique-names
   to their defining expression), with a visited set against
   recursion; [via] remembers the first helper on the path for the
   message.  A function literal is opened as code.  Any other binding
   runs where it is defined, so only what its value keeps crosses: an
   application keeps its function and its arguments, a function-typed
   one opened likewise, any other as the value it computes, judged by
   its type. *)
let free_vars ~binding_tbl expr0 =
  let used = Hashtbl.create 16 in
  let bound = Hashtbl.create 16 in
  let visited = Hashtbl.create 4 in
  let use key name e via =
    if not (Hashtbl.mem used key) then
      Hashtbl.replace used key (name, e.exp_type, e.exp_env, via)
  in
  let analyze ~via e =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self ce ->
            (match ce.exp_desc with
            | Texp_ident (Path.Pident id, _, _) ->
                let key = Ident.unique_name id in
                if not (Hashtbl.mem bound key) then
                  use key (Ident.name id) ce via
            | Texp_for (id, _, _, _, _, _) ->
                Hashtbl.replace bound (Ident.unique_name id) ()
            | Texp_function { param; _ } ->
                Hashtbl.replace bound (Ident.unique_name param) ()
            | _ -> ());
            Tast_iterator.default_iterator.expr self ce);
        pat =
          (fun (type k) self (p : k Typedtree.general_pattern) ->
            (match p.pat_desc with
            | Tpat_var (id, _) ->
                Hashtbl.replace bound (Ident.unique_name id) ()
            | Tpat_alias (_, id, _) ->
                Hashtbl.replace bound (Ident.unique_name id) ()
            | _ -> ());
            Tast_iterator.default_iterator.pat self p);
      }
    in
    it.expr it e
  in
  let rec kept ~via e =
    match e.exp_desc with
    | Texp_apply (f, args) ->
        kept ~via f;
        List.iter (function _, Some a -> value ~via a | _, None -> ()) args
    | _ -> analyze ~via e
  and value ~via a =
    match a.exp_desc with
    | Texp_apply _ when is_arrow a.exp_type -> kept ~via a
    | Texp_ident _ -> analyze ~via a
    | _ when is_arrow a.exp_type -> analyze ~via a
    | _ ->
        let line = Checker.line_of a.exp_loc in
        use (Printf.sprintf "value %d:%d" line (Checker.col_of a.exp_loc))
          (Printf.sprintf "the value at line %d" line) a via
  in
  analyze ~via:None expr0;
  let rec close () =
    let todo =
      Hashtbl.fold
        (fun key (name, ty, _env, via) acc ->
          if
            is_arrow ty
            && (not (Hashtbl.mem visited key))
            && Hashtbl.mem binding_tbl key
          then (key, name, via) :: acc
          else acc)
        used []
    in
    if todo <> [] then begin
      List.iter
        (fun (key, name, via) ->
          Hashtbl.replace visited key ();
          let via = Some (Option.value via ~default:name) in
          let e = Hashtbl.find binding_tbl key in
          match e.exp_desc with
          | Texp_function _ -> analyze ~via e
          | _ -> kept ~via e)
        todo;
      close ()
    end
  in
  close ();
  Hashtbl.fold
    (fun key (name, ty, env, via) acc ->
      if is_arrow ty || Hashtbl.mem visited key then acc
      else (key, name, ty, env, via) :: acc)
    used []
  |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> String.compare a b)

let check ~(emit : Checker.emit) (src : Typed_checker.source) =
  let str = src.Typed_checker.str in
  let binding_tbl = Hashtbl.create 64 in
  let mutable_records = Hashtbl.create 8 in
  let collect =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) ->
              Hashtbl.replace binding_tbl (Ident.unique_name id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding self vb);
      type_declaration =
        (fun self d ->
          (match d.typ_kind with
          | Ttype_record lds
            when List.exists
                   (fun ld -> ld.ld_mutable = Asttypes.Mutable)
                   lds ->
              Hashtbl.replace mutable_records
                (Ident.unique_name d.typ_id) ()
          | _ -> ());
          Tast_iterator.default_iterator.type_declaration self d);
    }
  in
  collect.structure collect str;
  let reported = Hashtbl.create 8 in
  let boundary_call e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match Typed_checker.last_two p with
        | Some m, name when List.mem (m, name) boundaries ->
            let closure =
              List.find_map
                (function
                  | Asttypes.Nolabel, Some a when is_arrow a.exp_type -> Some a
                  | _ -> None)
                args
            in
            Option.map
              (fun c -> (String.concat "." (Typed_checker.path_segments p), c))
              closure
        | _ -> None)
    | _ -> None
  in
  let scan =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match boundary_call e with
          | Some (callee, closure) ->
              let line = Checker.line_of e.exp_loc in
              let col = Checker.col_of e.exp_loc in
              List.iter
                (fun (key, name, ty, env, via) ->
                  match mutability ~mutable_records env ty with
                  | Some kind ->
                      let key = (line, key) in
                      if not (Hashtbl.mem reported key) then begin
                        Hashtbl.replace reported key ();
                        let via_s =
                          match via with
                          | None -> ""
                          | Some v -> Printf.sprintf " (reached through '%s')" v
                        in
                        emit ~line ~col
                          (Printf.sprintf
                             "closure crossing domains via %s captures %s \
                              '%s'%s; share it through Atomic or message \
                              passing, or keep it domain-local"
                             callee kind name via_s)
                      end
                  | None -> ())
                (free_vars ~binding_tbl closure)
          | None -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  scan.structure scan str

let checker : Typed_checker.t =
  {
    Typed_checker.id = "capture";
    keys = [ "capture"; "cross-domain" ];
    describe =
      "cross-domain capture: mutable state (refs, mutable records, \
       Bytes/Buffer/Hashtbl/...) captured by closures shipped through \
       Parallel.Pool.map_rows/map or Domain.spawn";
    check = (fun ~emit src -> check ~emit src);
  }
