open Linalg

type cell = Frequencies of Vec.t | Infeasible

type t = {
  tstarts : float array;
  ftargets : float array;
  cells : cell array array;
}

(* Written so that a NaN fails. *)
let finite_increasing (a : float array) =
  let ok = ref (Array.for_all Float.is_finite a) in
  for i = 1 to Array.length a - 1 do
    if not (a.(i) > a.(i - 1)) then ok := false
  done;
  !ok

let make ~tstarts ~ftargets cells =
  if Array.length tstarts = 0 || Array.length ftargets = 0 then
    invalid_arg "Table.make: empty axis";
  if not (finite_increasing tstarts) then
    invalid_arg "Table.make: tstarts not finite and strictly increasing";
  if not (finite_increasing ftargets) then
    invalid_arg "Table.make: ftargets not finite and strictly increasing";
  if Array.length cells <> Array.length tstarts then
    invalid_arg "Table.make: row count mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length ftargets then
        invalid_arg "Table.make: column count mismatch")
    cells;
  (* Every feasible cell must carry one finite, non-negative frequency
     per core — the same core count across the whole table, or a
     controller driving an n-core machine could hand the engine a
     short vector; an infinite entry would be clamped to the core's
     ceiling and run it flat out. *)
  let n_cores = ref (-1) in
  Array.iter
    (Array.iter (function
      | Infeasible -> ()
      | Frequencies f ->
          let d = Vec.dim f in
          if d = 0 then invalid_arg "Table.make: empty frequency vector";
          if !n_cores < 0 then n_cores := d
          else if d <> !n_cores then
            invalid_arg "Table.make: cell dimension mismatch";
          if not (Array.for_all (fun x -> Float.is_finite x && x >= 0.0) f)
          then invalid_arg "Table.make: non-finite or negative frequency"))
    cells;
  { tstarts; ftargets; cells }

let tstarts t = Array.copy t.tstarts
let ftargets t = Array.copy t.ftargets

let cell t i j =
  if i < 0 || i >= Array.length t.tstarts then
    invalid_arg "Table.cell: row out of range";
  if j < 0 || j >= Array.length t.ftargets then
    invalid_arg "Table.cell: column out of range";
  t.cells.(i).(j)

(* The axis searches behind the paper's run-time rule, shared by every
   lookup path (Table_store, Dense_table).  Binary: the axes are
   strictly increasing, and on a 100x100 production grid a linear scan
   was O(rows + cols) per lookup. *)

(* Smallest [i] with [axis.(i) >= x]; [-1] when [x] exceeds the last
   entry.  Int-returning (no option) so the alloc-free lookup paths
   can use it directly. *)
let covering (axis : float array) x =
  let n = Array.length axis in
  if axis.(n - 1) < x then -1
  else begin
    (* Invariant: axis.(hi) >= x, every index < lo is < x; the answer
       is in [lo, hi]. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if axis.(mid) >= x then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* [covering], clamped to the last entry when [x] exceeds the axis —
   the paper's round-up-then-fall-back starting column. *)
let round_up axis x =
  match covering axis x with -1 -> Array.length axis - 1 | j -> j

let core_count t =
  let n = ref None in
  Array.iter
    (Array.iter (function
      | Infeasible -> ()
      | Frequencies f -> if !n = None then n := Some (Vec.dim f)))
    t.cells;
  !n

(* %.17g round-trips every finite double exactly through
   float_of_string, so of_csv can use exact axis matching: %.6g used
   to round nearby tstarts/ftargets onto the same printed value and
   silently merge their rows/columns on re-read. *)
let to_csv t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i tstart ->
      Array.iteri
        (fun j ftarget ->
          Buffer.add_string buf (Printf.sprintf "%.17g,%.17g" tstart ftarget);
          (match t.cells.(i).(j) with
          | Infeasible -> Buffer.add_string buf ",infeasible"
          | Frequencies f ->
              Array.iter
                (fun x -> Buffer.add_string buf (Printf.sprintf ",%.17g" x))
                f);
          Buffer.add_char buf '\n')
        t.ftargets)
    t.tstarts;
  Buffer.contents buf

let of_csv text =
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let parsed =
    List.map
      (fun line ->
        match String.split_on_char ',' line with
        | tstart :: ftarget :: rest -> (
            let fs x =
              try float_of_string x
              with Failure _ -> failwith ("Table.of_csv: bad number " ^ x)
            in
            (* Axis values are matched exactly below, and NaN matches
               nothing. *)
            let axis x =
              let v = fs x in
              if not (Float.is_finite v) then
                failwith ("Table.of_csv: non-finite axis value " ^ x);
              v
            in
            match rest with
            | [ "infeasible" ] -> (axis tstart, axis ftarget, Infeasible)
            | [] -> failwith "Table.of_csv: missing cell payload"
            | freqs ->
                ( axis tstart,
                  axis ftarget,
                  Frequencies (Array.of_list (List.map fs freqs)) ))
        | _ -> failwith "Table.of_csv: malformed line")
      lines
  in
  let uniq_sorted (xs : float list) =
    List.sort_uniq compare xs |> Array.of_list
  in
  let tstarts = uniq_sorted (List.map (fun (t, _, _) -> t) parsed) in
  let ftargets = uniq_sorted (List.map (fun (_, f, _) -> f) parsed) in
  let find a (x : float) =
    let rec go i = if a.(i) = x then i else go (i + 1) in
    go 0
  in
  let cells =
    Array.make_matrix (Array.length tstarts) (Array.length ftargets) Infeasible
  in
  let seen =
    Array.make_matrix (Array.length tstarts) (Array.length ftargets) false
  in
  List.iter
    (fun (t, f, c) ->
      let i = find tstarts t and j = find ftargets f in
      if seen.(i).(j) then
        failwith
          (Printf.sprintf "Table.of_csv: duplicate cell (%.17g, %.17g)" t f);
      seen.(i).(j) <- true;
      cells.(i).(j) <- c)
    parsed;
  (* A dropped line must not read back as an infeasible cell. *)
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j present ->
          if not present then
            failwith
              (Printf.sprintf "Table.of_csv: missing cell (%.17g, %.17g)"
                 tstarts.(i) ftargets.(j)))
        row)
    seen;
  make ~tstarts ~ftargets cells

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "tstart \\ ftarget(MHz):";
  Array.iter (fun f -> Format.fprintf ppf " %8.0f" (f /. 1e6)) t.ftargets;
  Array.iteri
    (fun i tstart ->
      Format.fprintf ppf "@,%6.1f C:             " tstart;
      Array.iter
        (fun c ->
          match c with
          | Infeasible -> Format.fprintf ppf " %8s" "--"
          | Frequencies f ->
              Format.fprintf ppf " %8.0f" (Vec.mean f /. 1e6))
        t.cells.(i))
    t.tstarts;
  Format.fprintf ppf "@]"
