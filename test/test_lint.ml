(* Fixture-string tests for the static-analysis pass (DESIGN.md 6f):
   positive and negative cases per checker, the suppression path, the
   strict-manifest round-trip, and the JSON rendering.  Fixtures are
   linted via [Lint.Driver.lint_source], the same entry point the CLI
   drives per file, so what passes here is what `protemp_cli lint`
   enforces. *)

let ids findings = List.map (fun f -> f.Lint.Finding.checker) findings

let count checker findings =
  List.length (List.filter (fun f -> f.Lint.Finding.checker = checker) findings)

(* Default fixture home: library code with a declared interface, so
   only the checker under test can fire.  [typed] defaults to [`Off];
   the typed-pass tests opt in with [`Infer]. *)
let lint ?manifest ?units ?typed ?(mli_exists = true)
    ?(path = "lib/fix/fixture.ml") text =
  Lint.Driver.lint_source ?manifest ?units ?typed ~mli_exists ~path text

let check_counts ~msg expected findings =
  List.iter
    (fun (checker, n) ->
      Alcotest.(check int) (msg ^ ": " ^ checker) n (count checker findings))
    expected;
  let expected_total = List.fold_left (fun a (_, n) -> a + n) 0 expected in
  Alcotest.(check int)
    (msg ^ ": no other findings — got " ^ String.concat "," (ids findings))
    expected_total (List.length findings)

(* ------------------------------------------------------------------ *)
(* domain-safety *)

let test_domain_safety_positives () =
  check_counts ~msg:"toplevel ref"
    [ ("domain-safety", 1) ]
    (lint "let cache = ref None\n");
  check_counts ~msg:"toplevel Hashtbl"
    [ ("domain-safety", 1) ]
    (lint "let table = Hashtbl.create 16\n");
  check_counts ~msg:"toplevel Buffer"
    [ ("domain-safety", 1) ]
    (lint "let buf = Buffer.create 64\n");
  check_counts ~msg:"mutable-field record literal"
    [ ("domain-safety", 1) ]
    (lint "type t = { mutable hits : int }\nlet state = { hits = 0 }\n");
  check_counts ~msg:"inside a literal module"
    [ ("domain-safety", 1) ]
    (lint "module Cache = struct\n  let slots = Hashtbl.create 8\nend\n")

let test_domain_safety_negatives () =
  check_counts ~msg:"Atomic.make is the sanctioned form" []
    (lint "let hits = Atomic.make 0\n");
  check_counts ~msg:"function-local ref is a mutable variable" []
    (lint "let bump () =\n  let r = ref 0 in\n  incr r;\n  !r\n");
  check_counts ~msg:"immutable record literal" []
    (lint "type t = { hits : int }\nlet state = { hits = 0 }\n");
  check_counts ~msg:"binaries may hold process-wide state" []
    (lint ~path:"bin/tool.ml" "let cache = ref None\n")

let test_domain_safety_suppression () =
  check_counts ~msg:"domain-local suppression on the line above" []
    (lint
       "(* lint: domain-local fixture: single-domain memo *)\n\
        let cache = ref None\n");
  check_counts ~msg:"primary key works too" []
    (lint
       "(* lint: domain-safety fixture: single-domain memo *)\n\
        let cache = ref None\n");
  (* A suppression only reaches its own line and the next one. *)
  check_counts ~msg:"suppression two lines up does not reach"
    [ ("domain-safety", 1) ]
    (lint
       "(* lint: domain-local fixture: too far away *)\n\
        \n\
        let cache = ref None\n")

(* ------------------------------------------------------------------ *)
(* float-equality *)

let test_float_equality_positives () =
  check_counts ~msg:"(=) on a float literal"
    [ ("float-equality", 1) ]
    (lint "let is_zero x = x = 0.0\n");
  check_counts ~msg:"(<>) on float arithmetic"
    [ ("float-equality", 1) ]
    (lint "let differs a b = a +. b <> 0.0\n");
  check_counts ~msg:"compare on a float literal"
    [ ("float-equality", 1) ]
    (lint "let order x = compare x 1.0\n");
  check_counts ~msg:"Float.abs result is visibly float"
    [ ("float-equality", 1) ]
    (lint "let flat x = Float.abs x = 0.0\n")

let test_float_equality_negatives () =
  check_counts ~msg:"integer equality" [] (lint "let is_zero x = x = 0\n");
  check_counts ~msg:"Float.equal is the sanctioned form" []
    (lint "let is_zero x = Float.equal x 0.0\n");
  check_counts ~msg:"float comparison short of equality" []
    (lint "let small x = Float.abs x < 1e-9\n")

let test_float_equality_suppression () =
  check_counts ~msg:"inline suppression" []
    (lint "let is_zero x = x = 0.0 (* lint: float-equality fixture *)\n")

(* ------------------------------------------------------------------ *)
(* alloc-free manifest *)

let manifest_of text =
  let m, errors = Lint.Manifest.parse ~path:"lint.manifest" text in
  Alcotest.(check (list (pair int string))) "manifest parses" [] errors;
  m

let test_alloc_free_clean_and_dirty () =
  let manifest =
    manifest_of "lib/fix/fixture.ml kernel\nlib/fix/fixture.ml boxed\n"
  in
  let findings =
    lint ~manifest
      "let kernel dst x =\n\
      \  for i = 0 to Array.length dst - 1 do\n\
      \    dst.(i) <- dst.(i) +. x\n\
      \  done\n\
       \n\
       let boxed x = Some x\n"
  in
  check_counts ~msg:"in-place kernel clean, Some payload flagged"
    [ ("alloc-free", 1) ] findings;
  let f = List.hd findings in
  Alcotest.(check int) "flagged at the Some site" 6 f.Lint.Finding.line

let test_alloc_free_sites () =
  let one body =
    let manifest = manifest_of "lib/fix/fixture.ml hot\n" in
    count "alloc-free" (lint ~manifest (Printf.sprintf "let hot x = %s\n" body))
  in
  Alcotest.(check int) "tuple" 1 (one "(x, x)");
  Alcotest.(check int) "array literal" 1 (one "[| x |]");
  (* Cons parses as a constructor applied to an argument tuple, so the
     payload and the tuple are each reported. *)
  Alcotest.(check int) "list cons" 2 (one "x :: []");
  (* A trailing [fun] chain is parameter peeling, not a closure; one in
     argument position is the real allocation. *)
  Alcotest.(check int) "closure" 1 (one "List.map (fun y -> y + x) []");
  Alcotest.(check int) "lazy" 1 (one "lazy x");
  Alcotest.(check int) "constant constructor is free" 0 (one "if x then 1 else 2");
  Alcotest.(check int) "plain arithmetic is free" 0 (one "(x * 3) land 7")

let test_alloc_free_nested_path () =
  let manifest = manifest_of "lib/fix/fixture.ml run.step_once\n" in
  let findings =
    lint ~manifest
      "let run n =\n\
      \  let acc = ref 0 in\n\
      \  let step_once () = acc := !acc + (fst (n, n)) in\n\
      \  step_once ();\n\
      \  !acc\n"
  in
  check_counts ~msg:"tuple inside the nested hot loop"
    [ ("alloc-free", 1) ] findings

let test_alloc_free_partial_application () =
  let manifest = manifest_of "lib/fix/fixture.ml hot\n" in
  check_counts ~msg:"partial application of a same-file function"
    [ ("alloc-free", 1) ]
    (lint ~manifest "let add3 a b c = a + b + c\nlet hot x = add3 x 1\n");
  check_counts ~msg:"full application is free" []
    (lint ~manifest "let add3 a b c = a + b + c\nlet hot x = add3 x 1 2\n")

(* Satellite: the manifest is strict — a misspelled function is an
   error against the manifest itself, and it bypasses suppression. *)
let test_alloc_free_misspelled_entry () =
  let manifest = manifest_of "lib/fix/fixture.ml kernle\n" in
  let findings = lint ~manifest "let kernel dst = Array.fill dst 0 1 0.0\n" in
  check_counts ~msg:"unknown function is a finding" [ ("alloc-free", 1) ]
    findings;
  let f = List.hd findings in
  Alcotest.(check string)
    "finding lands on the manifest file" "lint.manifest" f.Lint.Finding.file;
  Alcotest.(check int) "at the entry's line" 1 f.Lint.Finding.line

let test_manifest_parse_errors () =
  let _, errors =
    Lint.Manifest.parse ~path:"lint.manifest"
      "# comment\n\nlib/fix/fixture.ml kernel\nlib/only_a_file.ml\n"
  in
  Alcotest.(check int) "one malformed line" 1 (List.length errors);
  Alcotest.(check int) "at line 4" 4 (fst (List.hd errors))

let test_manifest_unknown_file () =
  let manifest = manifest_of "lib/ghost.ml kernel\n" in
  let findings =
    Lint.Driver.manifest_unknown_files manifest ~seen:[ "lib/fix/fixture.ml" ]
  in
  Alcotest.(check int) "one unknown-file finding" 1 (List.length findings);
  Alcotest.(check string)
    "against the manifest" "lint.manifest"
    (List.hd findings).Lint.Finding.file

(* ------------------------------------------------------------------ *)
(* mli-coverage *)

let test_mli_coverage () =
  check_counts ~msg:"library module without an interface"
    [ ("mli-coverage", 1) ]
    (lint ~mli_exists:false "let x = 1\n");
  check_counts ~msg:"interface present" [] (lint ~mli_exists:true "let x = 1\n");
  check_counts ~msg:"declared internal" []
    (lint ~mli_exists:false
       "(* lint: internal fixture: implementation detail *)\nlet x = 1\n");
  check_counts ~msg:"binaries need no interface" []
    (lint ~path:"bin/tool.ml" ~mli_exists:false "let x = 1\n")

(* ------------------------------------------------------------------ *)
(* suppression hygiene and parse failures *)

let test_suppression_problems () =
  check_counts ~msg:"unknown key" [ ("suppression", 1) ]
    (lint "(* lint: bogus-key some reason *)\nlet x = 1\n");
  check_counts ~msg:"missing reason" [ ("suppression", 1) ]
    (lint "(* lint: float-equality *)\nlet x = 1\n")

let test_parse_error_is_a_finding () =
  check_counts ~msg:"syntax error becomes a finding, not an exception"
    [ ("parse-error", 1) ]
    (lint "let let let\n")

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let test_json_shape () =
  let f =
    Lint.Finding.v ~file:"lib/a.ml" ~line:3 ~col:7 ~checker:"float-equality"
      "say \"no\""
  in
  Alcotest.(check string) "object shape"
    (Printf.sprintf
       {|{"id":"%s","file":"lib/a.ml","line":3,"col":7,"checker":"float-equality","message":"say \"no\""}|}
       (Lint.Finding.id f))
    (Lint.Finding.to_json f);
  Alcotest.(check string) "empty array" "[]" (Lint.Finding.list_to_json []);
  let arr = Lint.Finding.list_to_json [ f; f ] in
  Alcotest.(check bool) "array brackets" true
    (String.length arr > 2 && arr.[0] = '[' && arr.[String.length arr - 1] = ']')

(* ------------------------------------------------------------------ *)
(* stable ids and the baseline *)

let test_finding_id_stability () =
  let f line =
    Lint.Finding.v ~file:"lib/a.ml" ~line ~checker:"units" "mixed units"
  in
  Alcotest.(check string) "id ignores the line"
    (Lint.Finding.id (f 3))
    (Lint.Finding.id (f 40));
  Alcotest.(check int) "12 hex chars" 12 (String.length (Lint.Finding.id (f 3)));
  let g = Lint.Finding.v ~file:"lib/b.ml" ~line:3 ~checker:"units" "mixed units" in
  Alcotest.(check bool) "different file, different id" true
    (Lint.Finding.id (f 3) <> Lint.Finding.id g)

let test_baseline_round_trip () =
  let dir = Filename.temp_file "protemp_baseline" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "lint.baseline" in
  Alcotest.(check (list string)) "missing file is an empty baseline" []
    (Lint.Baseline.load path);
  let f1 = Lint.Finding.v ~file:"lib/a.ml" ~line:3 ~checker:"units" "one" in
  let f2 = Lint.Finding.v ~file:"lib/b.ml" ~line:9 ~checker:"capture" "two" in
  Lint.Baseline.save path [ f1; f2 ];
  let ids = Lint.Baseline.load path in
  Alcotest.(check int) "both ids read back" 2 (List.length ids);
  let kept, n_baselined = Lint.Baseline.filter ids [ f1; f2 ] in
  Alcotest.(check int) "both filtered out" 0 (List.length kept);
  Alcotest.(check int) "both counted" 2 n_baselined;
  let f3 = Lint.Finding.v ~file:"lib/c.ml" ~line:1 ~checker:"units" "new" in
  let kept, n_baselined = Lint.Baseline.filter ids [ f1; f3 ] in
  Alcotest.(check (list string)) "a new finding survives the baseline"
    [ "lib/c.ml" ]
    (List.map (fun f -> f.Lint.Finding.file) kept);
  Alcotest.(check int) "only the old one baselined" 1 n_baselined

(* ------------------------------------------------------------------ *)
(* whole-repo driver on a seeded fixture tree *)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_run_repo_seeded_violation () =
  let root = Filename.temp_file "protemp_lint" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  write_file (Filename.concat root "lib/bad.ml") "let cache = ref None\n";
  write_file (Filename.concat root "lib/good.ml") "let x = 1\n";
  write_file (Filename.concat root "lib/good.mli") "val x : int\n";
  let r = Lint.Driver.run_repo ~root () in
  Alcotest.(check (list string)) "discovers both sources"
    [ "lib/bad.ml"; "lib/good.ml" ]
    r.Lint.Driver.files;
  Alcotest.(check int) "seeded domain-safety violation found" 1
    (count "domain-safety" r.Lint.Driver.findings);
  Alcotest.(check int) "bad.ml also lacks an interface" 1
    (count "mli-coverage" r.Lint.Driver.findings);
  Alcotest.(check bool) "non-empty findings drive the non-zero exit" true
    (r.Lint.Driver.findings <> []);
  Alcotest.(check int)
    "both self-contained files get an in-process typed pass" 2
    r.Lint.Driver.typed

(* ------------------------------------------------------------------ *)
(* typed pass: units of measure and cross-domain capture, on the
   committed fixture files (test/fixtures/, declared as dune deps) *)

(* Beside this executable in the build tree, where test/dune's deps put
   them, so a run from any directory finds them. *)
let read_fixture name =
  let ic =
    open_in_bin
      (List.fold_left Filename.concat
         (Filename.dirname Sys.executable_name)
         [ "fixtures"; name ])
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let units_manifest_of text =
  let m, errors = Lint.Units_manifest.parse ~path:"units.manifest" text in
  Alcotest.(check (list (pair int string))) "units manifest parses" [] errors;
  m

let units_bad_manifest path =
  Printf.sprintf
    "val %s fmax hz\nval %s tmax celsius\nfn %s clamp util:norm\n" path path
    path

let test_units_seeded_fixture () =
  let path = "lib/units_bad.ml" in
  let units = units_manifest_of (units_bad_manifest path) in
  let findings =
    lint ~path ~units ~typed:`Infer (read_fixture "units_bad.ml")
  in
  check_counts ~msg:"both seeded violations, nothing else"
    [ ("units", 2) ] findings;
  let lines = List.map (fun f -> f.Lint.Finding.line) findings in
  Alcotest.(check (list int)) "on the marked lines" [ 10; 16 ] lines

let test_units_vocabulary_is_closed () =
  let _, errors =
    Lint.Units_manifest.parse ~path:"units.manifest"
      "val lib/a.ml fmax hz\nval lib/a.ml speed furlong\n"
  in
  Alcotest.(check int) "unknown unit fails the load" 1 (List.length errors);
  Alcotest.(check int) "at its line" 2 (fst (List.hd errors))

let test_units_strict_manifest () =
  let path = "lib/units_bad.ml" in
  let units =
    units_manifest_of (units_bad_manifest path ^ "fn " ^ path ^ " missing x:hz\n")
  in
  let findings =
    lint ~path ~units ~typed:`Infer (read_fixture "units_bad.ml")
  in
  Alcotest.(check int) "the phantom entry is a finding" 3
    (count "units" findings);
  Alcotest.(check bool) "reported against the manifest file" true
    (List.exists
       (fun f -> f.Lint.Finding.file = "units.manifest")
       findings)

let test_units_suppression () =
  let path = "lib/units_bad.ml" in
  let units = units_manifest_of (units_bad_manifest path) in
  let suppressed =
    lint ~path ~units ~typed:`Infer
      "let fmax = 2.5e9\n\
       let tmax = 85.0\n\
       (* lint: units fixture: deliberate mixed add *)\n\
       let mixed = fmax +. tmax\n\
       let clamp ~util = if util > 1.0 then 1.0 else util\n\
       let _n = clamp ~util:0.5\n"
  in
  check_counts ~msg:"suppression silences the typed finding" [] suppressed

let test_capture_seeded_fixture () =
  let findings =
    lint ~path:"lib/capture_bad.ml" ~typed:`Infer
      (read_fixture "capture_bad.ml")
  in
  (* The toplevel ref also trips the syntactic domain-safety checker —
     the two checkers see the same hazard from different angles. *)
  check_counts ~msg:"seeded capture violation"
    [ ("capture", 1); ("domain-safety", 1) ]
    findings;
  let f =
    List.find (fun f -> f.Lint.Finding.checker = "capture") findings
  in
  Alcotest.(check int) "on the marked line" 17 f.Lint.Finding.line

let test_capture_clean_closure () =
  check_counts ~msg:"a closure over immutable state is fine" []
    (lint ~path:"lib/cap_ok.ml" ~typed:`Infer
       "module Parallel = struct\n\
       \  module Pool = struct let map_rows f n = Array.init n f end\n\
        end\n\
        let scale = 2.0\n\
        let rows n = Parallel.Pool.map_rows (fun i -> float_of_int i *. scale) n\n")

(* A binding that is not a function literal runs on the calling
   domain, so what crosses is what its value keeps.  The first [row]
   keeps columns computed from [t]'s fields and one of those fields,
   never [t]; the second is a partial application that keeps [t]. *)
let capture_fill body =
  "module Parallel = struct\n\
  \  module Pool = struct let map f n = Array.init n f end\n\
   end\n\
   module Model = struct\n\
  \  let columns ~scale fs = Array.map (fun f -> f *. scale) fs\n\
  \  let rows cs tstarts i = cs.(0) +. tstarts.(i)\n\
   end\n\
   type t = { scale : float; tstarts : float array; ftargets : float array;\n\
  \          mutable filled : bool }\n\
   let run_row t i = t.tstarts.(i) *. t.scale\n\
   let fill t =\n\
  \  let row = " ^ body ^ " in\n\
  \  Parallel.Pool.map row (Array.length t.tstarts)\n"

let test_capture_applied_binding () =
  check_counts ~msg:"values read from a mutable record's fields" []
    (lint ~path:"lib/cap_fields.ml" ~typed:`Infer
       (capture_fill
          "Model.rows (Model.columns ~scale:t.scale t.ftargets) t.tstarts"));
  let findings =
    lint ~path:"lib/cap_partial.ml" ~typed:`Infer (capture_fill "run_row t")
  in
  check_counts ~msg:"a partial application keeps the record"
    [ ("capture", 1) ] findings;
  Alcotest.(check bool) "it names the record and the binding" true
    (List.exists
       (fun f ->
         let m = f.Lint.Finding.message in
         let has s =
           let n = String.length s in
           let rec at i =
             i + n <= String.length m && (String.sub m i n = s || at (i + 1))
           in
           at 0
         in
         has "'t'" && has "'row'")
       findings)

let test_capture_atomic_is_sanctioned () =
  check_counts ~msg:"Atomic counters may cross domains" []
    (lint ~path:"lib/cap_atomic.ml" ~typed:`Infer
       "module Parallel = struct\n\
       \  module Pool = struct let map_rows f n = Array.init n f end\n\
        end\n\
        let hits = Atomic.make 0\n\
        (* lint: domain-safety shared counter, atomic by construction *)\n\
        let rows n = Parallel.Pool.map_rows (fun i -> Atomic.incr hits; i) n\n")

let test_poly_compare_seeded_fixture () =
  let findings =
    lint ~path:"lib/poly_compare_bad.ml" ~typed:`Infer
      (read_fixture "poly_compare_bad.ml")
  in
  check_counts ~msg:"seeded polymorphic compare" [ ("poly-compare", 1) ]
    findings;
  Alcotest.(check int) "on the marked line" 12
    (List.hd findings).Lint.Finding.line

let test_poly_compare_annotated_is_clean () =
  check_counts ~msg:"an annotated operand specializes the compare" []
    (lint ~path:"lib/pc_ok.ml" ~typed:`Infer
       "let coldest idle (temps : float array) =
       \  List.fold_left
       \    (fun best k -> if temps.(k) < temps.(best) then k else best)
       \    (List.hd idle) idle
        let sorted (xs : float list) = List.sort compare xs
")

let test_poly_compare_suppression () =
  check_counts ~msg:"suppression silences the typed finding" []
    (lint ~path:"lib/pc_generic.ml" ~typed:`Infer
       "(* lint: poly-compare fixture: generic over any ordered key *)
        let smaller a b = if a < b then a else b
")

let test_poly_compare_lib_only () =
  check_counts ~msg:"outside lib/ the generic compare is not flagged" []
    (lint ~path:"bin/pc_generic.ml" ~typed:`Infer
       "let smaller a b = if a < b then a else b
")

(* End-to-end: a fixture tree with both seeded files drives the
   non-zero exit through [run_repo], the path the CLI takes. *)
let test_run_repo_typed_fixture_tree () =
  let root = Filename.temp_file "protemp_typed" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  write_file
    (Filename.concat root "lib/units_bad.ml")
    (read_fixture "units_bad.ml");
  write_file (Filename.concat root "lib/units_bad.mli") "";
  write_file
    (Filename.concat root "lib/capture_bad.ml")
    (read_fixture "capture_bad.ml");
  write_file (Filename.concat root "lib/capture_bad.mli") "";
  write_file
    (Filename.concat root "units.manifest")
    (units_bad_manifest "lib/units_bad.ml");
  let r =
    Lint.Driver.run_repo ~root ~units_path:"units.manifest" ()
  in
  Alcotest.(check int) "both files typed in-process" 2 r.Lint.Driver.typed;
  Alcotest.(check int) "seeded units violations" 2
    (count "units" r.Lint.Driver.findings);
  Alcotest.(check int) "seeded capture violation" 1
    (count "capture" r.Lint.Driver.findings);
  Alcotest.(check bool) "the tree fails lint" true
    (r.Lint.Driver.findings <> [])

(* ------------------------------------------------------------------ *)
(* suppression reach: a property, not examples.  A suppression on line
   L silences a finding on line F iff F is L or L + 1. *)

let test_suppression_reach_property () =
  let gen = QCheck.Gen.(pair (int_range 1 30) (int_range 1 32)) in
  let prop (l, f) =
    let b = Buffer.create 256 in
    for line = 1 to 32 do
      if line = l then
        Buffer.add_string b "(* lint: float-equality fixture reason *)\n"
      else Buffer.add_string b "\n"
    done;
    let sup = Lint.Suppress.scan ~keys:Lint.Driver.all_keys (Buffer.contents b) in
    Lint.Suppress.active sup ~keys:[ "float-equality" ] ~line:f
    = (f = l || f = l + 1)
  in
  let cell =
    QCheck.Test.make ~count:500 ~name:"suppression reaches L and L+1 only"
      (QCheck.make gen) prop
  in
  QCheck.Test.check_exn cell

let () =
  Alcotest.run "lint"
    [
      ( "domain-safety",
        [
          Alcotest.test_case "positives" `Quick test_domain_safety_positives;
          Alcotest.test_case "negatives" `Quick test_domain_safety_negatives;
          Alcotest.test_case "suppression" `Quick test_domain_safety_suppression;
        ] );
      ( "float-equality",
        [
          Alcotest.test_case "positives" `Quick test_float_equality_positives;
          Alcotest.test_case "negatives" `Quick test_float_equality_negatives;
          Alcotest.test_case "suppression" `Quick
            test_float_equality_suppression;
        ] );
      ( "alloc-free",
        [
          Alcotest.test_case "clean and dirty bodies" `Quick
            test_alloc_free_clean_and_dirty;
          Alcotest.test_case "allocation sites" `Quick test_alloc_free_sites;
          Alcotest.test_case "nested path" `Quick test_alloc_free_nested_path;
          Alcotest.test_case "partial application" `Quick
            test_alloc_free_partial_application;
          Alcotest.test_case "misspelled entry is strict" `Quick
            test_alloc_free_misspelled_entry;
          Alcotest.test_case "manifest parse errors" `Quick
            test_manifest_parse_errors;
          Alcotest.test_case "unknown manifest file" `Quick
            test_manifest_unknown_file;
        ] );
      ( "mli-coverage",
        [ Alcotest.test_case "coverage" `Quick test_mli_coverage ] );
      ( "hygiene",
        [
          Alcotest.test_case "suppression problems" `Quick
            test_suppression_problems;
          Alcotest.test_case "parse errors" `Quick test_parse_error_is_a_finding;
          Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "suppression reach property" `Quick
            test_suppression_reach_property;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "stable ids" `Quick test_finding_id_stability;
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
        ] );
      ( "units",
        [
          Alcotest.test_case "seeded fixture" `Quick test_units_seeded_fixture;
          Alcotest.test_case "closed vocabulary" `Quick
            test_units_vocabulary_is_closed;
          Alcotest.test_case "strict manifest" `Quick test_units_strict_manifest;
          Alcotest.test_case "suppression" `Quick test_units_suppression;
        ] );
      ( "capture",
        [
          Alcotest.test_case "seeded fixture" `Quick test_capture_seeded_fixture;
          Alcotest.test_case "immutable capture is clean" `Quick
            test_capture_clean_closure;
          Alcotest.test_case "an applied binding keeps its values" `Quick
            test_capture_applied_binding;
          Alcotest.test_case "atomic is sanctioned" `Quick
            test_capture_atomic_is_sanctioned;
        ] );
      ( "poly-compare",
        [
          Alcotest.test_case "seeded fixture" `Quick
            test_poly_compare_seeded_fixture;
          Alcotest.test_case "annotated site is clean" `Quick
            test_poly_compare_annotated_is_clean;
          Alcotest.test_case "suppression" `Quick test_poly_compare_suppression;
          Alcotest.test_case "library code only" `Quick
            test_poly_compare_lib_only;
        ] );
      ( "driver",
        [
          Alcotest.test_case "seeded repo violation" `Quick
            test_run_repo_seeded_violation;
          Alcotest.test_case "seeded typed fixture tree" `Quick
            test_run_repo_typed_fixture_tree;
        ] );
    ]
