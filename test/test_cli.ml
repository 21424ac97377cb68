(* Tests for the command line's handling of untrusted numeric flags:
   NaN, infinities and out-of-range guard bands must end the run with a
   usage error and no output file, never with an all-infeasible table
   and exit status 0; a domain count below 1 is a usage error too. *)

(* The CLI sits in ../bin next to this executable in the build tree
   (test/dune lists it as a dependency). *)
let cli =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "protemp_cli.exe" ]

(* Exit status of the CLI on [args], with [-o FILE] appended, and
   whether FILE exists afterwards. *)
let run args =
  let out = Filename.temp_file "protemp_cli" ".csv" in
  Sys.remove out;
  let cmd =
    String.concat " "
      (List.map Filename.quote ((cli :: args) @ [ "-o"; out ]))
    ^ " > /dev/null 2>&1"
  in
  let status = Sys.command cmd in
  let written = Sys.file_exists out in
  if written then Sys.remove out;
  (status, written)

let small = [ "--stride"; "8"; "--tstarts"; "50,60"; "--ftargets"; "300,500" ]

let rejects name args () =
  let status, written = run args in
  Alcotest.(check int) (name ^ ": usage error") 124 status;
  Alcotest.(check bool) (name ^ ": no table written") false written

(* Exit status of the CLI on [args] and its standard error. *)
let run_stderr args =
  let err = Filename.temp_file "protemp_cli" ".err" in
  let cmd =
    String.concat " " (List.map Filename.quote (cli :: args))
    ^ " > /dev/null 2> " ^ Filename.quote err
  in
  let status = Sys.command cmd in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* [--domains] below 1 on each command that takes it: a usage error
   that names the flag's value, before any work starts. *)
let rejects_domains command value () =
  let status, err = run_stderr [ command; "--domains=" ^ value ] in
  Alcotest.(check int) "usage error" 124 status;
  Alcotest.(check bool)
    (Printf.sprintf "names the bad count: %s" err)
    true
    (contains ~sub:"is not a positive domain count" err)

let test_accepts_finite_margin () =
  let status, written = run ([ "table"; "--margin"; "2" ] @ small) in
  Alcotest.(check int) "exit status" 0 status;
  Alcotest.(check bool) "table written" true written

let () =
  let case name args =
    Alcotest.test_case name `Quick (rejects name ("table" :: args))
  in
  Alcotest.run "cli"
    [
      ( "table",
        [
          case "margin nan" ([ "--margin"; "nan" ] @ small);
          case "margin inf" ([ "--margin"; "inf" ] @ small);
          case "margin overflows to inf" ([ "--margin"; "1e400" ] @ small);
          case "margin at tmax" ([ "--margin"; "100" ] @ small);
          case "gradient weight nan" ([ "--gradient"; "nan" ] @ small);
          case "tstart nan"
            [ "--stride"; "8"; "--tstarts"; "50,nan"; "--ftargets"; "300" ];
          case "ftarget inf"
            [ "--stride"; "8"; "--tstarts"; "50"; "--ftargets"; "300,inf" ];
          Alcotest.test_case "finite margin accepted" `Quick
            test_accepts_finite_margin;
        ] );
      ( "domains",
        List.concat_map
          (fun command ->
            List.map
              (fun value ->
                Alcotest.test_case
                  (Printf.sprintf "%s --domains=%s" command value)
                  `Quick
                  (rejects_domains command value))
              [ "0"; "-1" ])
          [ "table"; "campaign"; "fleet" ] );
    ]
