(* The Pro-Temp benchmark: one workload per process, timed end to end,
   split by layer from outside when traced, and compared across
   commits.  See README.md.

     protemp_bench.exe run --workload W --seed S --seconds N --trace 0|1
                           [--fast] [--out FILE] [--spans FILE]
     protemp_bench.exe compare --base A.json... --change B.json...
                               [--benchmark BENCHMARK.json]

   [run] prints a human-readable report on stderr and, as the last line
   of stdout, one JSON object {correct, attempted, failed, metrics}:
   the end-to-end metrics untraced, the per-layer metrics traced.  It
   exits 1 when an output check fails and 2 on a usage or run error
   (then without a result line). *)

let usage =
  "usage: protemp_bench.exe run --workload W --seed S --seconds N --trace 0|1 \
   [--fast] [--out FILE] [--spans FILE]\n\
  \       protemp_bench.exe compare --base A.json... --change B.json... \
   [--benchmark FILE]"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("protemp_bench: " ^ msg);
      exit 2)
    fmt

let metrics_json l =
  Json.Object
    (List.map
       (fun { Workloads.name; unit_; value } ->
         ( name,
           Json.Object [ ("value", Json.Float value); ("unit", Json.String unit_) ]
         ))
       l)

let git_rev () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> String.trim l
      | _ -> "unknown")

let run argv =
  let workload = ref "" and seed = ref 2008 and seconds = ref 10.0 in
  let trace = ref 0 and fast = ref false and out = ref "" and spans = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N trace seed (default 2008)");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer split instead of end-to-end");
      ("--fast", Arg.Set fast, " small sizes (the dune runtest smoke)");
      ("--out", Arg.Set_string out, "FILE write the full result as JSON");
      ("--spans", Arg.Set_string spans, "FILE write traced spans as JSON lines");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let f =
    match List.assoc_opt !workload Workloads.all with
    | Some f -> f
    | None ->
        fail "unknown workload %S (one of %s)" !workload
          (String.concat ", " (List.map fst Workloads.all))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds >= 0.0) then fail "--seconds must be non-negative";
  let cfg =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      fast = !fast;
      domains = Domain.recommended_domain_count ();
      tmpdir = ".protemp_bench";
      calib = Calib.create ();
    }
  in
  let o =
    try f cfg
    with e -> fail "%s failed: %s" !workload (Printexc.to_string e)
  in
  (try Sys.rmdir cfg.Workloads.tmpdir with Sys_error _ -> ());
  let metrics = if cfg.Workloads.trace then o.Workloads.per_layer else o.Workloads.end_to_end in
  let finite =
    List.for_all (fun x -> Float.is_finite x.Workloads.value) metrics
  in
  if not finite then prerr_endline "  [FAIL] a metric is not finite";
  let correct =
    finite && o.Workloads.failed = 0 && List.for_all snd o.Workloads.checks
  in
  let summary =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int o.Workloads.attempted);
      ("failed", Json.Int o.Workloads.failed);
    ]
  in
  if !out <> "" then begin
    let doc =
      Json.Object
        ([
           ("workload", Json.String !workload);
           ("seed", Json.Int !seed);
           ("seconds", Json.Float !seconds);
           ("trace", Json.Bool cfg.Workloads.trace);
           ("fast", Json.Bool !fast);
           ( "host",
             Json.Object
               [
                 ("nproc", Json.Int cfg.Workloads.domains);
                 ("ocaml", Json.String Sys.ocaml_version);
                 ("word_size", Json.Int Sys.word_size);
                 ("os_type", Json.String Sys.os_type);
               ] );
           ("rev", Json.String (git_rev ()));
         ]
        @ summary
        @ [
            ( "checks",
              Json.Object
                (List.map (fun (n, ok) -> (n, Json.Bool ok)) o.Workloads.checks)
            );
            ("metrics", metrics_json o.Workloads.end_to_end);
            ("per_layer", metrics_json o.Workloads.per_layer);
            ("detail", Json.Object o.Workloads.detail);
          ])
    in
    Out_channel.with_open_text !out (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n')
  end;
  (match o.Workloads.spans with
  | Some sp when !spans <> "" -> Spans.write_jsonl sp !spans
  | _ -> ());
  print_endline
    (Json.to_string (Json.Object (summary @ [ ("metrics", metrics_json metrics) ])));
  exit (if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (Array.of_list ("protemp_bench run" :: rest))
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ ->
      prerr_endline usage;
      exit 2
