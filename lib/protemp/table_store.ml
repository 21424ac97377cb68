
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

(* The image, written in place into one buffer of {!file_bytes}. *)
let image ?core_fmax table =
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
  (* Zeroed, so the reserved header word, an infeasible cell's floats
     and the bitmap's clear bits need no write. *)
  let buf = Bytes.make (file_bytes ~rows ~cols ~cores) '\000' in
  Bytes.blit_string magic 0 buf 0 4;
  List.iteri
    (fun k v -> Bytes.set_int32_le buf (4 + (4 * k)) (Int32.of_int v))
    [ version; rows; cols; cores ];
  let pos = ref (header_bytes - 8) in
  let f64 x =
    Bytes.set_int64_le buf !pos (Int64.bits_of_float x);
    pos := !pos + 8
  in
  f64 sentinel;
  Array.iter f64 tstarts;
  Array.iter f64 ftargets;
  Array.iter f64 core_fmax;
  let bitmap = Bytes.length buf - bitmap_bytes ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      match Table.cell table i j with
      | Table.Frequencies f -> Array.iter f64 f
      | Table.Infeasible ->
          pos := !pos + (8 * cores);
          let k = (i * cols) + j in
          let at = bitmap + (k lsr 3) in
          Bytes.set_uint8 buf at (Bytes.get_uint8 buf at lor (1 lsl (k land 7)))
    done
  done;
  buf

let serialize ?core_fmax table =
  Bytes.unsafe_to_string (image ?core_fmax table)

let write ?core_fmax table path =
  let buf = image ?core_fmax table in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc buf)

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

let corrupt where what = failwith (Printf.sprintf "%s: %s" where what)

let u32_le bytes off =
  Char.code (Bigarray.Array1.get bytes off)
  lor (Char.code (Bigarray.Array1.get bytes (off + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get bytes (off + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get bytes (off + 3)) lsl 24)

(* Bit [(i * cols) + j] of the bitmap, set when the cell is
   infeasible; the image check and the lookups share it. *)
let infeasible_bit t i j =
  let k = (i * t.n_cols) + j in
  let byte =
    Char.code (Bigarray.Array1.get t.bytes_view (t.bitmap_off + (k lsr 3)))
  in
  byte land (1 lsl (k land 7)) <> 0

(* Validate an image of [size >= header_bytes] bytes held in
   [bytes_view], with its float payload (from byte 24) viewed by
   [float_view n_payload]; failures name [where]. *)
let of_image where ~size bytes_view ~float_view =
  for i = 0 to 3 do
    if Bigarray.Array1.get bytes_view i <> magic.[i] then
      corrupt where "bad magic (not a PTBL image)"
  done;
  let v = u32_le bytes_view 4 in
  (* Version before size: a version mismatch must be reported as such,
     not as the size error the new layout would imply. *)
  if v = 1 then
    corrupt where
      "format version 1 image (pre-platform, no per-core fmax block); \
       rebuild it with this writer's version 2 format"
  else if v <> version then
    corrupt where (Printf.sprintf "unsupported version %d (expected %d)" v version);
  let n_rows = u32_le bytes_view 8 in
  let n_cols = u32_le bytes_view 12 in
  let n_cores = u32_le bytes_view 16 in
  if n_rows < 1 || n_cols < 1 || n_cores < 0 then
    corrupt where "implausible dimensions";
  if size <> file_bytes ~rows:n_rows ~cols:n_cols ~cores:n_cores then
    corrupt where
      (Printf.sprintf "size %d does not match declared %dx%dx%d layout" size
         n_rows n_cols n_cores);
  let view =
    float_view (payload_floats ~rows:n_rows ~cols:n_cols ~cores:n_cores)
  in
  (* Exact sentinel check, through the float view: catches a view that
     decodes the payload differently from the header parser above. *)
  if not (Float.equal (Bigarray.Array1.get view 0) sentinel) then
    corrupt where "float-view sentinel mismatch";
  let tstarts = Array.init n_rows (fun i -> Bigarray.Array1.get view (1 + i)) in
  let ftargets =
    Array.init n_cols (fun j -> Bigarray.Array1.get view (1 + n_rows + j))
  in
  let core_fmax =
    Array.init n_cores (fun c ->
        Bigarray.Array1.get view (1 + n_rows + n_cols + c))
  in
  if not (Table.finite_increasing tstarts) then
    corrupt where "tstart axis not finite and strictly increasing";
  if not (Table.finite_increasing ftargets) then
    corrupt where "ftarget axis not finite and strictly increasing";
  if not (Array.for_all valid_frequency core_fmax) then
    corrupt where "non-finite or negative per-core fmax";
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
  (* Every cell the bitmap marks feasible is served as is, so each of
     its frequencies must be one the engine can run; a feasible cell
     needs at least one core to carry them. *)
  for i = 0 to n_rows - 1 do
    for j = 0 to n_cols - 1 do
      if not (infeasible_bit t i j) then begin
        if n_cores = 0 then corrupt where "feasible cell with no cores";
        let base = t.cells_base + (((i * n_cols) + j) * n_cores) in
        for c = 0 to n_cores - 1 do
          if not (valid_frequency (Bigarray.Array1.get view (base + c))) then
            corrupt where
              (Printf.sprintf
                 "cell (%d, %d) holds a non-finite or negative frequency" i j)
        done
      end
    done
  done;
  t

let open_file path =
  let where = "Table_store.open_file: " ^ path in
  if Sys.big_endian then
    corrupt where
      "big-endian host: the little-endian float view cannot be mapped \
       directly";
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then corrupt where "truncated header";
      let bytes_view =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
      in
      of_image where ~size bytes_view ~float_view:(fun n ->
          Bigarray.array1_of_genarray
            (Unix.map_file fd ~pos:(Int64.of_int (header_bytes - 8))
               Bigarray.float64 Bigarray.c_layout false [| n |])))

(* The image [open_file] would map, held in memory: the payload floats
   are decoded from the little-endian bytes, so any host serves it. *)
let of_table table =
  let image = serialize table in
  let size = String.length image in
  let bytes_view =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout size
  in
  String.iteri (Bigarray.Array1.set bytes_view) image;
  of_image "Table_store.of_table" ~size bytes_view ~float_view:(fun n ->
      let view = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      for k = 0 to n - 1 do
        Bigarray.Array1.set view k
          (Int64.float_of_bits
             (String.get_int64_le image (header_bytes - 8 + (8 * k))))
      done;
      view)

let n_rows t = t.n_rows
let n_cols t = t.n_cols
let n_cores t = t.n_cores
let tstarts t = Array.copy t.tstarts
let ftargets t = Array.copy t.ftargets
let core_fmax t = Array.copy t.core_fmax

(* ------------------------------------------------------------------ *)
(* Lookups — the serving hot path, allocation-free (lint.manifest) *)

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

(* The paper's rule: covering row, round the requirement up, walk down
   to the first feasible column. *)
let lookup_into t ~temperature ~required ~into =
  if Array.length into <> t.n_cores then
    invalid_arg "Table_store.lookup_into: core count mismatch";
  let row = Table.covering t.tstarts temperature in
  if row < 0 then false
  else begin
    let j = ref (Table.round_up t.ftargets required) in
    while !j >= 0 && infeasible_bit t row !j do
      decr j
    done;
    !j >= 0 && cell_into t row !j ~into
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
