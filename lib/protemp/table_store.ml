
(* Format constants (see the .mli for the full layout).  The magic is
   the four bytes 'P' 'T' 'B' 'L' in file order; the sentinel is a
   float64 1.0 that open_file re-reads through the mapped float view,
   so a wrong-endianness or misaligned mapping is rejected before any
   cell is served. *)
let magic = "PTBL"
let version = 2
let header_bytes = 32
let sentinel = 1.0

let pad8 n = (n + 7) land lnot 7

let bitmap_bytes ~rows ~cols = pad8 ((rows * cols + 7) / 8)

(* v2 payload: sentinel, the two axes, the per-core fmax block (one
   float per core; zeros when the writer did not know the platform),
   then the cells. *)
let payload_floats ~rows ~cols ~cores =
  1 + rows + cols + cores + (rows * cols * cores)

let file_bytes ~rows ~cols ~cores =
  header_bytes - 8
  + (8 * payload_floats ~rows ~cols ~cores)
  + bitmap_bytes ~rows ~cols

(* ------------------------------------------------------------------ *)
(* Writing *)

(* What every served frequency and every recorded ceiling must be. *)
let valid_frequency f = Float.is_finite f && f >= 0.0

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_f64 buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let serialize ?core_fmax table =
  let tstarts = Table.tstarts table in
  let ftargets = Table.ftargets table in
  let rows = Array.length tstarts and cols = Array.length ftargets in
  let cores = match Table.core_count table with Some n -> n | None -> 0 in
  let core_fmax =
    match core_fmax with
    | None -> Array.make cores 0.0 (* "platform unknown" sentinel *)
    | Some a ->
        if Array.length a <> cores then
          invalid_arg "Table_store.serialize: core_fmax length mismatch";
        if not (Array.for_all valid_frequency a) then
          invalid_arg "Table_store.serialize: non-finite or negative core fmax";
        a
  in
  let buf = Buffer.create (file_bytes ~rows ~cols ~cores) in
  Buffer.add_string buf magic;
  add_u32 buf version;
  add_u32 buf rows;
  add_u32 buf cols;
  add_u32 buf cores;
  add_u32 buf 0;
  add_f64 buf sentinel;
  Array.iter (add_f64 buf) tstarts;
  Array.iter (add_f64 buf) ftargets;
  Array.iter (add_f64 buf) core_fmax;
  let bitmap = Bytes.make (bitmap_bytes ~rows ~cols) '\000' in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      match Table.cell table i j with
      | Table.Frequencies f -> Array.iter (add_f64 buf) f
      | Table.Infeasible ->
          for _ = 1 to cores do
            add_f64 buf 0.0
          done;
          let k = (i * cols) + j in
          Bytes.set bitmap (k lsr 3)
            (Char.chr
               (Char.code (Bytes.get bitmap (k lsr 3)) lor (1 lsl (k land 7))))
    done
  done;
  Buffer.add_bytes buf bitmap;
  Buffer.contents buf

let write ?core_fmax table path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (serialize ?core_fmax table))

(* ------------------------------------------------------------------ *)
(* Reading *)

type t = {
  n_rows : int;
  n_cols : int;
  n_cores : int;
  tstarts : float array;  (* copied out of the image at open time *)
  ftargets : float array;
  core_fmax : float array;  (* per-core ceilings; zeros = unknown *)
  view : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* sentinel + axes + cells, mapped from byte 24 *)
  cells_base : int;  (* view index of cell (0, 0, core 0) *)
  bytes_view : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout)
               Bigarray.Array1.t;  (* the whole file *)
  bitmap_off : int;  (* byte offset of the bitmap *)
}

let corrupt path what =
  failwith (Printf.sprintf "Table_store.open_file: %s: %s" path what)

let u32_le bytes off =
  Char.code (Bigarray.Array1.get bytes off)
  lor (Char.code (Bigarray.Array1.get bytes (off + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get bytes (off + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get bytes (off + 3)) lsl 24)

let strictly_increasing (a : float array) =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

(* Bit [(i * cols) + j] of the bitmap, set when the cell is
   infeasible; open_file's cell check and the lookups share it. *)
let infeasible_bit t i j =
  let k = (i * t.n_cols) + j in
  let byte =
    Char.code (Bigarray.Array1.get t.bytes_view (t.bitmap_off + (k lsr 3)))
  in
  byte land (1 lsl (k land 7)) <> 0

let open_file path =
  if Sys.big_endian then
    corrupt path "big-endian host: the little-endian float view cannot be \
                  mapped directly";
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then corrupt path "truncated header";
      let bytes_view =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
      in
      for i = 0 to 3 do
        if Bigarray.Array1.get bytes_view i <> magic.[i] then
          corrupt path "bad magic (not a PTBL image)"
      done;
      let v = u32_le bytes_view 4 in
      (* Version before size: a version mismatch must be reported as
         such, not as the size error the new layout would imply. *)
      if v = 1 then
        corrupt path
          "format version 1 image (pre-platform, no per-core fmax block); \
           rebuild it with this writer's version 2 format"
      else if v <> version then
        corrupt path (Printf.sprintf "unsupported version %d (expected %d)" v version);
      let n_rows = u32_le bytes_view 8 in
      let n_cols = u32_le bytes_view 12 in
      let n_cores = u32_le bytes_view 16 in
      if n_rows < 1 || n_cols < 1 || n_cores < 0 then
        corrupt path "implausible dimensions";
      if size <> file_bytes ~rows:n_rows ~cols:n_cols ~cores:n_cores then
        corrupt path
          (Printf.sprintf "size %d does not match declared %dx%dx%d layout"
             size n_rows n_cols n_cores);
      let n_payload = payload_floats ~rows:n_rows ~cols:n_cols ~cores:n_cores in
      let view =
        Bigarray.array1_of_genarray
          (Unix.map_file fd ~pos:(Int64.of_int (header_bytes - 8))
             Bigarray.float64 Bigarray.c_layout false [| n_payload |])
      in
      (* Exact sentinel check, through the float view: catches a
         mapping that decodes the payload differently from the header
         parser above. *)
      if not (Float.equal (Bigarray.Array1.get view 0) sentinel) then
        corrupt path "float-view sentinel mismatch";
      let tstarts = Array.init n_rows (fun i -> Bigarray.Array1.get view (1 + i)) in
      let ftargets =
        Array.init n_cols (fun j -> Bigarray.Array1.get view (1 + n_rows + j))
      in
      let core_fmax =
        Array.init n_cores (fun c ->
            Bigarray.Array1.get view (1 + n_rows + n_cols + c))
      in
      if not (Array.for_all Float.is_finite tstarts
              && Array.for_all Float.is_finite ftargets)
      then corrupt path "non-finite axis value";
      if not (strictly_increasing tstarts) then
        corrupt path "tstart axis not strictly increasing";
      if not (strictly_increasing ftargets) then
        corrupt path "ftarget axis not strictly increasing";
      if not (Array.for_all valid_frequency core_fmax) then
        corrupt path "non-finite or negative per-core fmax";
      let t =
        {
          n_rows;
          n_cols;
          n_cores;
          tstarts;
          ftargets;
          core_fmax;
          view;
          cells_base = 1 + n_rows + n_cols + n_cores;
          bytes_view;
          bitmap_off = size - bitmap_bytes ~rows:n_rows ~cols:n_cols;
        }
      in
      (* Every cell the bitmap marks feasible is served as is, so each
         of its frequencies must be one the engine can run; a feasible
         cell needs at least one core to carry them. *)
      for i = 0 to n_rows - 1 do
        for j = 0 to n_cols - 1 do
          if not (infeasible_bit t i j) then begin
            if n_cores = 0 then corrupt path "feasible cell with no cores";
            let base = t.cells_base + (((i * n_cols) + j) * n_cores) in
            for c = 0 to n_cores - 1 do
              if not (valid_frequency (Bigarray.Array1.get view (base + c)))
              then
                corrupt path
                  (Printf.sprintf
                     "cell (%d, %d) holds a non-finite or negative frequency"
                     i j)
            done
          end
        done
      done;
      t)

let n_rows t = t.n_rows
let n_cols t = t.n_cols
let n_cores t = t.n_cores
let tstarts t = Array.copy t.tstarts
let ftargets t = Array.copy t.ftargets
let core_fmax t = Array.copy t.core_fmax

(* ------------------------------------------------------------------ *)
(* Lookups — the serving hot path, allocation-free (lint.manifest) *)

let row_index t temperature =
  let ts = t.tstarts in
  let n = Array.length ts in
  if ts.(n - 1) < temperature then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ts.(mid) >= temperature then hi := mid else lo := mid + 1
    done;
    !lo
  end

let col_start t required =
  let fa = t.ftargets in
  let n = Array.length fa in
  if fa.(n - 1) < required then n - 1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fa.(mid) >= required then hi := mid else lo := mid + 1
    done;
    !lo
  end

let cell_into t i j ~into =
  if i < 0 || i >= t.n_rows || j < 0 || j >= t.n_cols then
    invalid_arg "Table_store.cell_into: cell out of range";
  if Array.length into <> t.n_cores then
    invalid_arg "Table_store.cell_into: core count mismatch";
  if infeasible_bit t i j then false
  else begin
    let base = t.cells_base + ((((i * t.n_cols) + j) * t.n_cores)) in
    for c = 0 to t.n_cores - 1 do
      into.(c) <- Bigarray.Array1.get t.view (base + c)
    done;
    true
  end

let lookup_into t ~temperature ~required ~into =
  if Array.length into <> t.n_cores then
    invalid_arg "Table_store.lookup_into: core count mismatch";
  let row = row_index t temperature in
  if row < 0 then false
  else begin
    let j = ref (col_start t required) in
    let found = ref false in
    while (not !found) && !j >= 0 do
      if infeasible_bit t row !j then decr j
      else begin
        let base = t.cells_base + ((((row * t.n_cols) + !j) * t.n_cores)) in
        for c = 0 to t.n_cores - 1 do
          into.(c) <- Bigarray.Array1.get t.view (base + c)
        done;
        found := true
      end
    done;
    !found
  end

(* ------------------------------------------------------------------ *)

let to_table t =
  let cells =
    Array.init t.n_rows (fun i ->
        Array.init t.n_cols (fun j ->
            if infeasible_bit t i j then Table.Infeasible
            else
              let base = t.cells_base + (((i * t.n_cols) + j) * t.n_cores) in
              Table.Frequencies
                (Array.init t.n_cores (fun c ->
                     Bigarray.Array1.get t.view (base + c)))))
  in
  Table.make ~tstarts:(Array.copy t.tstarts) ~ftargets:(Array.copy t.ftargets)
    cells
