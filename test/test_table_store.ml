(* Tests for the mmap-able binary serving format: byte-for-byte
   round-trips against Table's CSV semantics, header validation
   (magic, version, size, endianness sentinel), the committed golden
   header, allocation-free lookups, and identical lookups from
   concurrent readers sharing one image across domains. *)

open Linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let freqs a = Protemp.Table.Frequencies a

(* The canonical fixture behind the committed golden header: 3 rows, 2
   columns, 2 cores, one infeasible corner.  Changing the format
   version or header layout must change the golden file consciously. *)
let canonical_table () =
  Protemp.Table.make ~tstarts:[| 50.0; 80.0; 100.0 |] ~ftargets:[| 2e8; 5e8 |]
    [|
      [| freqs [| 2e8; 2.5e8 |]; freqs [| 5e8; 5.5e8 |] |];
      [| freqs [| 1.5e8; 2e8 |]; freqs [| 4e8; 4.5e8 |] |];
      [| freqs [| 1e8; 1.25e8 |]; Protemp.Table.Infeasible |];
    |]

let with_store table f =
  let path = Filename.temp_file "protemp_store" ".ptbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Protemp.Table_store.write table path;
      f path (Protemp.Table_store.open_file path))

let with_image bytes f =
  let path = Filename.temp_file "protemp_store" ".ptbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      f path)

let opens_with_failure bytes =
  with_image bytes (fun path ->
      match Protemp.Table_store.open_file path with
      | _ -> None
      | exception Failure msg -> Some msg)

(* ------------------------------------------------------------------ *)

let test_roundtrip_csv_semantics () =
  let t = canonical_table () in
  with_store t (fun _path store ->
      (* CSV is %.17g — exact for every finite double — so string
         equality is bit-for-bit cell equality. *)
      check_string "csv round-trip" (Protemp.Table.to_csv t)
        (Protemp.Table.to_csv (Protemp.Table_store.to_table store));
      check_int "rows" 3 (Protemp.Table_store.n_rows store);
      check_int "cols" 2 (Protemp.Table_store.n_cols store);
      check_int "cores" 2 (Protemp.Table_store.n_cores store))

let test_lookup_matches_table () =
  let t = canonical_table () in
  with_store t (fun _path store ->
      let buf = Vec.zeros 2 in
      let agree temperature required =
        let expected = Table_reference.lookup t ~temperature ~required in
        let got =
          Protemp.Table_store.lookup_into store ~temperature ~required
            ~into:buf
        in
        match (expected, got) with
        | None, false -> true
        | Some f, true -> Vec.approx_equal ~tol:0.0 f buf
        | Some _, false | None, true -> false
      in
      for it = 0 to 499 do
        let temperature = 20.0 +. (float_of_int (it mod 25) *. 4.0) in
        let required = float_of_int (it mod 20) *. 0.5e8 in
        check_bool
          (Printf.sprintf "lookup (%g, %g)" temperature required)
          true
          (agree temperature required)
      done)

let test_all_infeasible_image () =
  let t =
    Protemp.Table.make ~tstarts:[| 50.0 |] ~ftargets:[| 2e8 |]
      [| [| Protemp.Table.Infeasible |] |]
  in
  with_store t (fun _path store ->
      check_int "zero cores" 0 (Protemp.Table_store.n_cores store);
      check_bool "lookup misses" false
        (Protemp.Table_store.lookup_into store ~temperature:40.0 ~required:1e8
           ~into:(Vec.zeros 0));
      check_string "csv round-trip" (Protemp.Table.to_csv t)
        (Protemp.Table.to_csv (Protemp.Table_store.to_table store)));
  (* Clearing the one bitmap bit would make the cell feasible with no
     core to carry a frequency. *)
  let image = Bytes.of_string (Protemp.Table_store.serialize t) in
  Bytes.set image (Bytes.length image - 8) '\000';
  check_bool "feasible cell without cores rejected" true
    (opens_with_failure (Bytes.to_string image) <> None)

let test_core_fmax_roundtrip () =
  let t = canonical_table () in
  (* Default: platform unknown, recorded as zeros. *)
  with_store t (fun _path store ->
      check_bool "unknown platform is all zeros" true
        (Protemp.Table_store.core_fmax store = [| 0.0; 0.0 |]));
  (* Explicit ceilings round-trip exactly. *)
  let path = Filename.temp_file "protemp_store" ".ptbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Protemp.Table_store.write ~core_fmax:[| 1e9; 6e8 |] t path;
      let store = Protemp.Table_store.open_file path in
      check_bool "ceilings round-trip" true
        (Protemp.Table_store.core_fmax store = [| 1e9; 6e8 |]));
  (* Length mismatches and negative or non-finite ceilings are writer
     errors. *)
  let rejects core_fmax =
    match Protemp.Table_store.serialize ~core_fmax t with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "length mismatch rejected" true (rejects [| 1e9 |]);
  check_bool "negative ceiling rejected" true (rejects [| 1e9; -1.0 |]);
  check_bool "infinite ceiling rejected" true (rejects [| 1e9; infinity |]);
  check_bool "NaN ceiling rejected" true (rejects [| Float.nan; 1e9 |])

let test_golden_header () =
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  let hex = Buffer.create 64 in
  String.iteri
    (fun i c ->
      if i < 32 then Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
    image;
  (* Beside this executable in the build tree (a test/dune dep). *)
  let ic =
    open_in
      (Filename.concat
         (Filename.dirname Sys.executable_name)
         "table_store_header.golden")
  in
  let golden = String.trim (input_line ic) in
  close_in ic;
  check_string "committed golden header (format version 2)" golden
    (Buffer.contents hex)

(* The whole canonical image, pinned by its MD5 (computed with the
   one-float-at-a-time writer this replaced): with the unknown
   platform's zero ceilings and with recorded ones, from {!serialize}
   and from the file {!write} leaves. *)
let test_golden_image () =
  let table = canonical_table () in
  List.iter
    (fun (label, core_fmax, digest) ->
      check_string (label ^ ": serialize") digest
        (Digest.to_hex
           (Digest.string (Protemp.Table_store.serialize ?core_fmax table)));
      let path = Filename.temp_file "protemp_store" ".ptbl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Protemp.Table_store.write ?core_fmax table path;
          check_string (label ^ ": write") digest
            (Digest.to_hex (Digest.file path))))
    [
      ("unknown platform", None, "4e8d3e34f28bb039fc1191a06e193f25");
      ( "recorded ceilings",
        Some [| 1e9; 1.2e9 |],
        "d3202c117fb551e7e90dfbe214679c93" );
    ]

let test_rejects_truncated () =
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  (* Truncated header. *)
  check_bool "truncated header" true
    (opens_with_failure (String.sub image 0 16) <> None);
  (* Truncated payload: header intact, cells cut short. *)
  check_bool "truncated payload" true
    (opens_with_failure (String.sub image 0 (String.length image - 8)) <> None);
  (* Trailing garbage: size no longer matches the declared layout. *)
  check_bool "trailing garbage" true
    (opens_with_failure (image ^ "XXXXXXXX") <> None)

let test_rejects_bad_magic_and_version () =
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  let patch off c =
    let b = Bytes.of_string image in
    Bytes.set b off c;
    Bytes.to_string b
  in
  (match opens_with_failure (patch 0 'X') with
  | Some msg -> check_bool "magic message" true (String.length msg > 0)
  | None -> Alcotest.fail "bad magic accepted");
  (* Version 3 is from the future. *)
  check_bool "future version" true (opens_with_failure (patch 4 '\003') <> None);
  (* A big-endian writer would produce version bytes 00 00 00 02. *)
  let be = patch 4 '\000' in
  let be = Bytes.of_string be in
  Bytes.set be 7 '\002';
  check_bool "big-endian version field" true
    (opens_with_failure (Bytes.to_string be) <> None)

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_rejects_v1_with_versioned_message () =
  (* A stale pre-platform fleet image: same payload a v1 writer would
     have produced (no core_fmax block), version byte 1.  The error
     must name the version so operators know to rebuild, not debug. *)
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  let b = Bytes.of_string image in
  Bytes.set b 4 '\001';
  match opens_with_failure (Bytes.to_string b) with
  | None -> Alcotest.fail "v1 image accepted"
  | Some msg ->
      check_bool
        (Printf.sprintf "message names version 1: %s" msg)
        true
        (contains_substring ~needle:"version 1" msg)

let test_rejects_corrupt_sentinel () =
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  let b = Bytes.of_string image in
  (* The float-view sentinel lives at bytes 24..31. *)
  Bytes.set b 27 '\055';
  check_bool "corrupt sentinel" true
    (opens_with_failure (Bytes.to_string b) <> None)

(* [image] with the little-endian float64 at byte [off] replaced. *)
let patch_f64 image off x =
  let b = Bytes.of_string image in
  Bytes.set_int64_le b off (Int64.bits_of_float x);
  Bytes.to_string b

let test_rejects_unsorted_axis () =
  let image = Protemp.Table_store.serialize (canonical_table ()) in
  (* Overwrite tstarts.(1) (bytes 40..47) with a value below
     tstarts.(0): the axis must be strictly increasing. *)
  check_bool "unsorted axis" true
    (opens_with_failure (patch_f64 image 40 10.0) <> None)

(* The canonical image's float offsets: tstarts at 32, ftargets at 56,
   the two per-core ceilings at 72, then the cells from 88 (cell
   (0, 0) core 0).  A served cell or ceiling that is infinite would be
   clamped to the core's ceiling and run it flat out, so every
   non-finite or negative value must be refused at open time. *)
let test_rejects_non_finite_values () =
  let image =
    Protemp.Table_store.serialize ~core_fmax:[| 1e9; 1e9 |] (canonical_table ())
  in
  List.iter
    (fun (what, off, x) ->
      check_bool what true (opens_with_failure (patch_f64 image off x) <> None))
    [
      ("infinite cell", 88, infinity);
      ("NaN cell", 96, Float.nan);
      ("negative cell", 104, -1.0);
      ("infinite core fmax", 72, infinity);
      ("NaN core fmax", 80, Float.nan);
      ("NaN tstart", 32, Float.nan);
      ("infinite ftarget", 64, infinity);
    ];
  (* The infeasible corner (2, 1) is never served, so its padding is
     not checked: bytes 88 + 16 * 5. *)
  check_bool "infeasible padding ignored" true
    (opens_with_failure (patch_f64 image (88 + (16 * 5)) Float.nan) = None)

(* ------------------------------------------------------------------ *)
(* Mutation property: whatever a damaged image or CSV file holds, the
   reader either refuses it with its own error or serves only
   frequencies the engine can run — never another exception, a
   silently wrong table or a read outside the mapping. *)

let gen_table =
  QCheck2.Gen.(
    let* rows = int_range 1 4 in
    let* cols = int_range 1 4 in
    let* cores = int_range 1 3 in
    let* cells =
      array_repeat (rows * cols)
        (opt ~ratio:0.8 (array_repeat cores (float_range 0.0 1e9)))
    in
    return
      (Protemp.Table.make
         ~tstarts:(Array.init rows (fun i -> 40.0 +. (15.0 *. float_of_int i)))
         ~ftargets:(Array.init cols (fun j -> 1e8 *. float_of_int (j + 1)))
         (Array.init rows (fun i ->
              Array.init cols (fun j ->
                  match cells.((i * cols) + j) with
                  | Some f -> freqs f
                  | None -> Protemp.Table.Infeasible)))))

(* Positions are drawn unbounded and reduced modulo the length at
   application time, so one generator serves every image size. *)
type edit =
  | Truncate of int  (** Keep a prefix. *)
  | Flip of int * int  (** Byte, bit. *)
  | Poke of int * float  (** Overwrite an aligned float64. *)
  | Resize of int  (** Append (> 0) or drop (< 0) bytes. *)
  | Insert of int * string  (** Text only. *)
  | Delete of int  (** Text only. *)

let print_edit = function
  | Truncate n -> Printf.sprintf "Truncate %d" n
  | Flip (b, k) -> Printf.sprintf "Flip (%d, %d)" b k
  | Poke (o, x) -> Printf.sprintf "Poke (%d, %h)" o x
  | Resize d -> Printf.sprintf "Resize %d" d
  | Insert (p, t) -> Printf.sprintf "Insert (%d, %S)" p t
  | Delete p -> Printf.sprintf "Delete %d" p

let special_floats =
  [ infinity; neg_infinity; Float.nan; -1.0; -0.0; 0.0; max_float; 1e9 ]

let gen_image_edit =
  QCheck2.Gen.(
    let pos = int_range 0 100_000 in
    frequency
      [
        (1, map (fun n -> Truncate n) pos);
        (4, map2 (fun b k -> Flip (b, k)) pos (int_range 0 7));
        (3, map2 (fun o x -> Poke (o, x)) pos (oneofl special_floats));
        (1, map (fun d -> Resize d) (int_range (-16) 16));
      ])

let gen_text_edit =
  QCheck2.Gen.(
    let pos = int_range 0 100_000 in
    frequency
      [
        (1, map (fun n -> Truncate n) pos);
        (2, map2 (fun b k -> Flip (b, k)) pos (int_range 0 6));
        ( 3,
          map2
            (fun p t -> Insert (p, t))
            pos
            (oneofl
               [ "nan"; "inf"; "-"; ","; "\n"; "e9"; "e400"; "0"; ".";
                 "infeasible"; "-1" ]) );
        (2, map (fun p -> Delete p) pos);
      ])

let apply_edit text edit =
  let n = String.length text in
  let at p = if n = 0 then 0 else p mod n in
  match edit with
  | Truncate k -> String.sub text 0 (at k)
  | Flip (b, k) when n > 0 ->
      let bytes = Bytes.of_string text in
      let i = at b in
      Bytes.set bytes i (Char.chr (Char.code text.[i] lxor (1 lsl k)));
      Bytes.to_string bytes
  | Poke (o, x) when n >= 8 ->
      let bytes = Bytes.of_string text in
      Bytes.set_int64_le bytes (8 * (o mod (n / 8))) (Int64.bits_of_float x);
      Bytes.to_string bytes
  | Resize d when d >= 0 -> text ^ String.make d '\000'
  | Resize d -> String.sub text 0 (max 0 (n + d))
  | Insert (p, t) ->
      let i = if n = 0 then 0 else p mod (n + 1) in
      String.sub text 0 i ^ t ^ String.sub text i (n - i)
  | Delete p when n > 0 ->
      let i = at p in
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | Flip _ | Poke _ | Delete _ -> text

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Probe every row and column, the gaps between them and both sides of
   each axis; every served entry must be finite and non-negative. *)
let serves_only_valid ~tstarts ~ftargets ~n_cores lookup_into =
  let around axis =
    Array.to_list axis
    |> List.concat_map (fun x -> [ x -. 1.0; x; x +. 1.0 ])
    |> List.cons 0.0
  in
  let into = Vec.zeros n_cores in
  List.for_all
    (fun temperature ->
      List.for_all
        (fun required ->
          (not (lookup_into ~temperature ~required ~into))
          || Array.for_all (fun f -> Float.is_finite f && f >= 0.0) into)
        (around ftargets))
    (around tstarts)

let prop_mutated_image_fails_closed =
  QCheck2.Test.make ~name:"store: mutated images fail closed" ~count:400
    ~print:(fun (t, edits) ->
      Protemp.Table.to_csv t ^ String.concat "; " (List.map print_edit edits))
    QCheck2.Gen.(pair gen_table (list_size (int_range 1 3) gen_image_edit))
    (fun (table, edits) ->
      let image =
        List.fold_left apply_edit (Protemp.Table_store.serialize table) edits
      in
      with_image image (fun path ->
          match Protemp.Table_store.open_file path with
          | exception Failure msg ->
              starts_with ~prefix:"Table_store.open_file:" msg
          | store ->
              (* to_table rebuilds the grid through Table.make, so
                 returning at all means the image passed its checks. *)
              let t = Protemp.Table_store.to_table store in
              serves_only_valid ~tstarts:(Protemp.Table.tstarts t)
                ~ftargets:(Protemp.Table.ftargets t)
                ~n_cores:(Protemp.Table_store.n_cores store)
                (Protemp.Table_store.lookup_into store)))

let prop_mutated_csv_fails_closed =
  QCheck2.Test.make ~name:"table: mutated CSV fails closed" ~count:400
    ~print:(fun (t, edits) ->
      Protemp.Table.to_csv t ^ String.concat "; " (List.map print_edit edits))
    QCheck2.Gen.(pair gen_table (list_size (int_range 1 3) gen_text_edit))
    (fun (table, edits) ->
      let text = List.fold_left apply_edit (Protemp.Table.to_csv table) edits in
      match Protemp.Table.of_csv text with
      | exception Failure msg -> starts_with ~prefix:"Table.of_csv:" msg
      | exception Invalid_argument msg -> starts_with ~prefix:"Table.make:" msg
      | t -> (
          match Protemp.Table.core_count t with
          | None -> true
          | Some n_cores ->
              serves_only_valid ~tstarts:(Protemp.Table.tstarts t)
                ~ftargets:(Protemp.Table.ftargets t) ~n_cores
                (Protemp.Table_store.lookup_into
                   (Protemp.Table_store.of_table t))))

(* Probes at the axis points and anywhere around them, beyond both ends
   of each axis included. *)
let gen_probe =
  QCheck2.Gen.(
    pair
      (oneof [ float_range 20.0 110.0; oneofl [ 40.0; 55.0; 70.0; 85.0 ] ])
      (oneof [ float_range 0.0 5e8; oneofl [ 1e8; 2e8; 3e8; 4e8 ] ]))

(* The in-memory image, the mapped file and the reference rule
   (test/table_reference.ml) serve the same vector, or all miss. *)
let prop_served_paths_agree =
  QCheck2.Test.make ~name:"store: of_table, open_file and the reference agree"
    ~count:200
    ~print:(fun (t, probes) ->
      Protemp.Table.to_csv t
      ^ String.concat "; "
          (List.map (fun (x, y) -> Printf.sprintf "(%h, %h)" x y) probes))
    QCheck2.Gen.(pair gen_table (list_size (int_range 1 20) gen_probe))
    (fun (table, probes) ->
      with_store table (fun _path mapped ->
          let memory = Protemp.Table_store.of_table table in
          let serve store ~temperature ~required =
            let into = Vec.zeros (Protemp.Table_store.n_cores store) in
            if
              Protemp.Table_store.lookup_into store ~temperature ~required
                ~into
            then Some into
            else None
          in
          List.for_all
            (fun (temperature, required) ->
              let expected =
                Table_reference.lookup table ~temperature ~required
              in
              serve memory ~temperature ~required = expected
              && serve mapped ~temperature ~required = expected)
            probes))

let test_lookup_allocation_free () =
  let t = canonical_table () in
  with_store t (fun _path store ->
      (* Queries live in a tuple array so the floats are already boxed:
         passing them to lookup_into allocates nothing, and the
         lookup itself must not either (lint.manifest covers the
         syntactic half; this is the runtime half, like Engine.run's
         zero-words golden). *)
      let queries =
        Array.init 512 (fun i ->
            ( 20.0 +. (float_of_int (i mod 29) *. 3.5),
              float_of_int (i mod 23) *. 0.4e8 ))
      in
      let buf = Vec.zeros 2 in
      let run () =
        for i = 0 to Array.length queries - 1 do
          let temperature, required = queries.(i) in
          ignore
            (Protemp.Table_store.lookup_into store ~temperature ~required
               ~into:buf)
        done
      in
      run ();
      (* Warm-up forced any one-time lazies. *)
      let before = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) "minor words for 512 lookups" 0.0 words)

let test_concurrent_readers_share_image () =
  let t = canonical_table () in
  with_store t (fun _path store ->
      let temps = Array.init 40 (fun i -> 20.0 +. (float_of_int i *. 2.5)) in
      let reqs = Array.init 20 (fun j -> float_of_int j *. 0.4e8) in
      let snapshot () =
        let buf = Vec.zeros 2 in
        Array.map
          (fun temperature ->
            Array.map
              (fun required ->
                if
                  Protemp.Table_store.lookup_into store ~temperature ~required
                    ~into:buf
                then Some (Vec.copy buf)
                else None)
              reqs)
          temps
      in
      let reference = snapshot () in
      (* One mapped image, read from >= 4 domains at once: every
         reader must see exactly the reference lookups. *)
      let results = Parallel.Pool.map ~domains:4 (fun _ -> snapshot ()) 8 in
      Array.iteri
        (fun k snap ->
          check_bool (Printf.sprintf "reader %d identical" k) true
            (snap = reference))
        results)

let () =
  Alcotest.run "table_store"
    [
      ( "format",
        [
          Alcotest.test_case "csv round-trip" `Quick
            test_roundtrip_csv_semantics;
          Alcotest.test_case "lookup matches table" `Quick
            test_lookup_matches_table;
          Alcotest.test_case "all-infeasible image" `Quick
            test_all_infeasible_image;
          Alcotest.test_case "core_fmax round-trip" `Quick
            test_core_fmax_roundtrip;
          Alcotest.test_case "golden header" `Quick test_golden_header;
          Alcotest.test_case "golden image" `Quick test_golden_image;
        ] );
      ( "validation",
        [
          Alcotest.test_case "rejects truncated" `Quick test_rejects_truncated;
          Alcotest.test_case "rejects bad magic/version" `Quick
            test_rejects_bad_magic_and_version;
          Alcotest.test_case "rejects v1 with versioned message" `Quick
            test_rejects_v1_with_versioned_message;
          Alcotest.test_case "rejects corrupt sentinel" `Quick
            test_rejects_corrupt_sentinel;
          Alcotest.test_case "rejects unsorted axis" `Quick
            test_rejects_unsorted_axis;
          Alcotest.test_case "rejects non-finite values" `Quick
            test_rejects_non_finite_values;
          QCheck_alcotest.to_alcotest prop_mutated_image_fails_closed;
          QCheck_alcotest.to_alcotest prop_mutated_csv_fails_closed;
        ] );
      ( "serving",
        [
          Alcotest.test_case "allocation-free lookups" `Quick
            test_lookup_allocation_free;
          Alcotest.test_case "concurrent readers" `Quick
            test_concurrent_readers_share_image;
          QCheck_alcotest.to_alcotest prop_served_paths_agree;
        ] );
    ]
