(* Spans recorded from the harness around calls into the library's
   public functions.  They are kept in memory and written out when the
   run ends; a layer's self time is its span's duration minus the part
   its child spans cover.  Single-domain only: the traced repetitions
   run on one domain. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  name : string;
  start_ns : int;
  end_ns : int;
}

type t = { mutable spans : span list; mutable next : int; mutable current : int }

let create () = { spans = []; next = 1; current = 0 }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start_ns = Clock.now_ns () in
  let finish () =
    let end_ns = Clock.now_ns () in
    t.current <- parent;
    t.spans <- { id; parent; name; start_ns; end_ns } :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

type layer = {
  count : int;
  total_ns : int;
  self_ns : int;
  durations_ns : float array;
}

(* Per span name: call count, total and self time, and every
   duration (for percentiles). *)
let aggregate t =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      Hashtbl.replace covered s.parent
        (d + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      let self = d - Option.value ~default:0 (Hashtbl.find_opt covered s.id) in
      let count, total, self', ds =
        Option.value ~default:(0, 0, 0, [])
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        (count + 1, total + d, self' + self, float_of_int d :: ds))
    t.spans;
  Hashtbl.fold
    (fun name (count, total_ns, self_ns, ds) acc ->
      (name, { count; total_ns; self_ns; durations_ns = Array.of_list ds })
      :: acc)
    by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find layers name =
  match List.assoc_opt name layers with
  | Some l -> l
  | None -> { count = 0; total_ns = 0; self_ns = 0; durations_ns = [||] }

let write_jsonl t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"name\": %s, \"start_ns\": %d, \
             \"end_ns\": %d}\n"
            s.id s.parent (Json.escape s.name) s.start_ns s.end_ns)
        (List.rev t.spans))
