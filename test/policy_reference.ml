(* The list-based assignment policies the mask scans replaced, kept as
   the oracle for the qcheck equivalence properties (the same role
   [Engine_reference] plays for the engine).  Each takes the
   candidates as an index list and folds it front to back; a mask
   maps to the ascending list of its [true] cells. *)

open Linalg

let coldest ~idle ~core_temperatures =
  match idle with
  | [] -> invalid_arg "Policy_reference: no idle core"
  | c :: rest ->
      List.fold_left
        (fun best k ->
          if core_temperatures.(k) < core_temperatures.(best) then k else best)
        c rest

let first_idle ~idle ~core_classes:_ ~core_temperatures:_ =
  match idle with
  | [] -> invalid_arg "Policy_reference.first_idle: no idle core"
  | c :: rest -> Some (List.fold_left Stdlib.min c rest)

let coolest_first ~idle ~core_classes:_ ~(core_temperatures : Vec.t) =
  Some (coldest ~idle ~core_temperatures)

let cool_headroom ~threshold ~idle ~core_classes:_
    ~(core_temperatures : Vec.t) =
  let c = coldest ~idle ~core_temperatures in
  if core_temperatures.(c) < threshold then Some c else None

let prefer_class ~cls ~idle ~(core_classes : int array)
    ~(core_temperatures : Vec.t) =
  match List.filter (fun c -> core_classes.(c) = cls) idle with
  | [] -> Some (coldest ~idle ~core_temperatures)
  | preferred -> Some (coldest ~idle:preferred ~core_temperatures)

(* Stateful like [Fleet.Balancer.round_robin]: build one per sequence. *)
let round_robin () =
  let next = ref 0 in
  fun ~idle ~core_classes:_ ~core_temperatures:_ ->
    match idle with
    | [] -> None
    | _ ->
        let pick = List.nth idle (!next mod List.length idle) in
        incr next;
        Some pick

(* Mask <-> ascending candidate list. *)
let mask_of ~n idle = Array.init n (fun k -> List.mem k idle)

let list_of_mask mask =
  List.filter (fun k -> mask.(k)) (List.init (Array.length mask) Fun.id)
