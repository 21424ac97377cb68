(* The alloc-free manifest: one line per hot function whose body must
   contain no syntactic allocation site.

     # comment
     lib/sim/stats.ml record_step_nodes
     lib/sim/chip.ml run_loop.step_once

   The first field is the repo-relative file, the second a dotted
   binding path: toplevel [let]s, [module M = struct ... end] members,
   and (after a value segment) nested [let ... in] bindings. *)

type entry = { file : string; funcpath : string list; line : int }
type t = { path : string; entries : entry list }

let parse ~path text =
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim raw in
      if s = "" || s.[0] = '#' then ()
      else
        match String.split_on_char ' ' s |> List.filter (fun w -> w <> "") with
        | [ file; func ] ->
            let funcpath = String.split_on_char '.' func in
            if List.exists (fun seg -> seg = "") funcpath then
              errors :=
                (line, Printf.sprintf "malformed function path '%s'" func)
                :: !errors
            else entries := { file; funcpath; line } :: !entries
        | _ ->
            errors :=
              ( line,
                Printf.sprintf
                  "malformed manifest line '%s' (want: FILE DOTTED.PATH)" s )
              :: !errors)
    (String.split_on_char '\n' text);
  ({ path; entries = List.rev !entries }, List.rev !errors)

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse ~path text

let entries_for t file =
  List.filter (fun e -> e.file = file) t.entries

let files t =
  List.sort_uniq String.compare (List.map (fun e -> e.file) t.entries)
