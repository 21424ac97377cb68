type kind = Core | Cache | Buffer | Interconnect | Other

type block = {
  name : string;
  kind : kind;
  x : float;
  y : float;
  width : float;
  height : float;
}

type t = { blocks : block array; by_name : (string, int) Hashtbl.t }

let geom_eps = 1e-9

let area b = b.width *. b.height

let center b = (b.x +. (0.5 *. b.width), b.y +. (0.5 *. b.height))

let center_distance b1 b2 =
  let x1, y1 = center b1 and x2, y2 = center b2 in
  sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0))

(* Overlap of intervals [a1, a2] and [b1, b2]. *)
let interval_overlap a1 a2 b1 b2 =
  Float.max 0.0 (Float.min a2 b2 -. Float.max a1 b1)

let overlap_area b1 b2 =
  interval_overlap b1.x (b1.x +. b1.width) b2.x (b2.x +. b2.width)
  *. interval_overlap b1.y (b1.y +. b1.height) b2.y (b2.y +. b2.height)

let shared_edge b1 b2 =
  let x_ov = interval_overlap b1.x (b1.x +. b1.width) b2.x (b2.x +. b2.width) in
  let y_ov =
    interval_overlap b1.y (b1.y +. b1.height) b2.y (b2.y +. b2.height)
  in
  let touch_x =
    Float.abs (b1.x +. b1.width -. b2.x) < geom_eps
    || Float.abs (b2.x +. b2.width -. b1.x) < geom_eps
  in
  let touch_y =
    Float.abs (b1.y +. b1.height -. b2.y) < geom_eps
    || Float.abs (b2.y +. b2.height -. b1.y) < geom_eps
  in
  if touch_x && y_ov > geom_eps then y_ov
  else if touch_y && x_ov > geom_eps then x_ov
  else 0.0

let make block_list =
  let blocks = Array.of_list block_list in
  let by_name = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun i b ->
      if b.width <= 0.0 || b.height <= 0.0 then
        invalid_arg
          (Printf.sprintf "Floorplan.make: block %S has non-positive size"
             b.name);
      if Hashtbl.mem by_name b.name then
        invalid_arg
          (Printf.sprintf "Floorplan.make: duplicate block name %S" b.name);
      Hashtbl.add by_name b.name i)
    blocks;
  let n = Array.length blocks in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if overlap_area blocks.(i) blocks.(j) > 1e-12 then
        invalid_arg
          (Printf.sprintf "Floorplan.make: blocks %S and %S overlap"
             blocks.(i).name blocks.(j).name)
    done
  done;
  { blocks; by_name }

let size fp = Array.length fp.blocks
let index_of fp name = Hashtbl.find fp.by_name name

let block_of fp i =
  if i < 0 || i >= size fp then invalid_arg "Floorplan.block_of: out of range";
  fp.blocks.(i)

let neighbours fp i =
  let b = block_of fp i in
  let acc = ref [] in
  for j = size fp - 1 downto 0 do
    if j <> i then begin
      let len = shared_edge b fp.blocks.(j) in
      if len > geom_eps then acc := (j, len) :: !acc
    end
  done;
  !acc

let cores fp =
  let acc = ref [] in
  for i = size fp - 1 downto 0 do
    if fp.blocks.(i).kind = Core then acc := i :: !acc
  done;
  Array.of_list !acc

let total_area fp = Array.fold_left (fun acc b -> acc +. area b) 0.0 fp.blocks

let bounding_box fp =
  if size fp = 0 then invalid_arg "Floorplan.bounding_box: empty floorplan";
  Array.fold_left
    (fun (xmin, ymin, xmax, ymax) b ->
      ( Float.min xmin b.x,
        Float.min ymin b.y,
        Float.max xmax (b.x +. b.width),
        Float.max ymax (b.y +. b.height) ))
    (infinity, infinity, neg_infinity, neg_infinity)
    fp.blocks
