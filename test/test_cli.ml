(* Tests for the command line's handling of untrusted input: NaN,
   infinities and out-of-range guard bands must end the run with a
   usage error and no output file, never with an all-infeasible table
   and exit status 0; a count below 1, an unknown mix or a core the
   chip does not have is a usage error too, and a malformed table CSV
   a one-line error (exit 123), never an uncaught exception. *)

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

(* A bad count, name or core index on the serving commands is a
   usage error, never an uncaught exception (exit 125). *)
let rejects_usage args () =
  let status, err = run_stderr args in
  Alcotest.(check int) (Printf.sprintf "usage error: %s" err) 124 status

let test_stuck_core_beyond_chip () =
  let status, err =
    run_stderr
      [ "simulate"; "--controller"; "no-tc"; "--tasks"; "10"; "--stuck-core";
        "99" ]
  in
  Alcotest.(check int) "usage error" 124 status;
  Alcotest.(check bool)
    (Printf.sprintf "names the core: %s" err)
    true
    (contains ~sub:"--stuck-core 99" err)

(* A table CSV with its last line deleted (so one cell is missing):
   one line on stderr naming the file, and exit status 123. *)
let test_malformed_table () =
  let csv = Filename.temp_file "protemp_cli" ".csv" in
  let status =
    Sys.command
      (String.concat " "
         (List.map Filename.quote ((cli :: "table" :: small) @ [ "-o"; csv ]))
      ^ " > /dev/null 2>&1")
  in
  Alcotest.(check int) "table built" 0 status;
  let lines =
    In_channel.with_open_bin csv In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Out_channel.with_open_bin csv (fun oc ->
      List.iteri
        (fun i l ->
          if i < List.length lines - 1 then output_string oc (l ^ "\n"))
        lines);
  let status, err =
    run_stderr [ "validate"; "--stride"; "8"; "--table"; csv ]
  in
  Sys.remove csv;
  Alcotest.(check int) (Printf.sprintf "term error: %s" err) 123 status;
  Alcotest.(check bool)
    (Printf.sprintf "one line naming the file: %s" err)
    true
    (String.starts_with ~prefix:("protemp: " ^ csv ^ ": ") err
    && String.index err '\n' = String.length err - 1)

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
          case "ftarget above fmax"
            [ "--stride"; "8"; "--tstarts"; "50"; "--ftargets"; "300,2000" ];
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
      ( "bad input",
        let quick = [ "--controller"; "no-tc"; "--tasks"; "10" ] in
        let case name args =
          Alcotest.test_case name `Quick (rejects_usage args)
        in
        [
          case "simulate --mix nosuch" ("simulate" :: "--mix=nosuch" :: quick);
          case "fleet --mix nosuch"
            [ "fleet"; "--mix=nosuch"; "--tasks"; "10" ];
          case "pro-temp without --table" [ "simulate"; "--tasks"; "10" ];
          case "--ladder 0" ("simulate" :: "--ladder=0" :: quick);
          case "--actuator-levels 0"
            ("simulate" :: "--actuator-levels=0" :: quick);
          case "--stale 0" ("simulate" :: "--stale=0" :: quick);
          case "fleet --chips 0" [ "fleet"; "--chips=0"; "--tasks"; "10" ];
          case "--tasks 0" [ "simulate"; "--controller"; "no-tc"; "--tasks=0" ];
          case "solve --stride 0"
            [ "solve"; "--stride=0"; "--tstart"; "50"; "--ftarget"; "300" ];
          case "--sensor-noise -1" ("simulate" :: "--sensor-noise=-1" :: quick);
          case "campaign --sensor-noise -1"
            [ "campaign"; "--sensor-noise=-1"; "--tasks"; "10" ];
          case "online --margin at tmax"
            [ "simulate"; "--controller"; "online"; "--margin=100";
              "--tasks"; "10" ];
          case "fleet --window 0" [ "fleet"; "--window=0"; "--tasks"; "10" ];
          case "fleet --penalty -1"
            [ "fleet"; "--penalty=-1"; "--tasks"; "10" ];
          Alcotest.test_case "--stuck-core beyond the chip" `Quick
            test_stuck_core_beyond_chip;
          Alcotest.test_case "malformed table csv" `Quick test_malformed_table;
        ] );
    ]
