let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let default_domains () =
  match Option.bind (Sys.getenv_opt "PROTEMP_DOMAINS") parse_domains with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  size : int;
}

let size t = t.size

(* Workers sleep on [nonempty] until a task arrives or the pool is
   shut down; tasks run outside the lock. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.nonempty t.mutex
  done;
  match Queue.take_opt t.queue with
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t
  | None ->
      (* Closed and drained. *)
      Mutex.unlock t.mutex

let create ?domains () =
  let size =
    Stdlib.max 1 (match domains with Some d -> d | None -> default_domains ())
  in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      size;
    }
  in
  (* The submitting domain works too, so [size - 1] extra domains. *)
  (* lint: capture the pool record is the shared queue itself; every field the workers touch is accessed under t.mutex *)
  t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Per-batch completion state, separate from the pool lock so an idle
   pool can accept the next batch while stragglers finish. *)
type batch = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable remaining : int;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let sequential f n =
  (* Explicit loop: the order [f 0, f 1, ...] is part of the contract
     (bit-identical to what a caller's own loop would do). *)
  if n <= 0 then [||]
  else begin
    let first = f 0 in
    let results = Array.make n first in
    for i = 1 to n - 1 do
      results.(i) <- f i
    done;
    results
  end

let map_rows t f n =
  if n < 0 then invalid_arg "Pool.map_rows: negative size";
  if t.size <= 1 || n <= 1 then sequential f n
  else begin
    let results = Array.make n None in
    let batch =
      {
        b_mutex = Mutex.create ();
        b_done = Condition.create ();
        remaining = n;
        failed = None;
      }
    in
    let task i () =
      (match f i with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock batch.b_mutex;
          (match batch.failed with
          | Some (j, _, _) when j < i -> ()
          | Some _ | None -> batch.failed <- Some (i, e, bt));
          Mutex.unlock batch.b_mutex);
      Mutex.lock batch.b_mutex;
      batch.remaining <- batch.remaining - 1;
      if batch.remaining = 0 then Condition.broadcast batch.b_done;
      Mutex.unlock batch.b_mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    (* Help drain the queue from the submitting domain. *)
    let rec help () =
      Mutex.lock t.mutex;
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.mutex;
          task ();
          help ()
      | None -> Mutex.unlock t.mutex
    in
    help ();
    Mutex.lock batch.b_mutex;
    while batch.remaining > 0 do
      Condition.wait batch.b_done batch.b_mutex
    done;
    let failed = batch.failed in
    Mutex.unlock batch.b_mutex;
    match failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function Some v -> v | None -> assert false)
          results
  end

(* Capped at the task count: no worker for a task that does not
   exist. *)
let map ?domains f n =
  let domains = Option.value domains ~default:(default_domains ()) in
  with_pool ~domains:(Stdlib.min n domains) (fun t -> map_rows t f n)
