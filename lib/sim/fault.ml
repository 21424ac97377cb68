open Linalg

type t =
  | Sensor_noise of { seed : int64; magnitude : float }
  | Stuck_sensor of { core : int; reading : float option }
  | Stale_observation of { epochs : int }
  | Quantized_actuator of { levels : float array }

let sensor_noise ?(seed = 1807L) ~magnitude () =
  if magnitude < 0.0 then invalid_arg "Fault.sensor_noise: negative magnitude";
  Sensor_noise { seed; magnitude }

let stuck_sensor ?reading ~core () =
  if core < 0 then invalid_arg "Fault.stuck_sensor: negative core index";
  Stuck_sensor { core; reading }

let stale_observation ~epochs =
  if epochs < 1 then invalid_arg "Fault.stale_observation: need epochs >= 1";
  Stale_observation { epochs }

let quantized_actuator ~levels =
  if Array.length levels = 0 then
    invalid_arg "Fault.quantized_actuator: empty ladder";
  Array.iteri
    (fun i l ->
      if l <= 0.0 then
        invalid_arg "Fault.quantized_actuator: non-positive level";
      if i > 0 && l <= levels.(i - 1) then
        invalid_arg "Fault.quantized_actuator: ladder not strictly increasing")
    levels;
  Quantized_actuator { levels = Array.copy levels }

let name = function
  | Sensor_noise { magnitude; _ } -> Printf.sprintf "noise%gC" magnitude
  | Stuck_sensor { core; reading = Some r } ->
      Printf.sprintf "stuck%d@%gC" core r
  | Stuck_sensor { core; reading = None } -> Printf.sprintf "stuck%d" core
  | Stale_observation { epochs } -> Printf.sprintf "stale%d" epochs
  | Quantized_actuator { levels } ->
      Printf.sprintf "ladder%d" (Array.length levels)

(* Largest level <= f (0 when below the lowest), by binary search. *)
let ladder_floor levels f =
  let n = Array.length levels in
  if f < levels.(0) then 0.0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if levels.(mid) <= f then lo := mid else hi := mid - 1
    done;
    levels.(!lo)
  end

(* One fault instance, with its run-local mutable state: [corrupt]
   rewrites the core readings in place, [actuate] rewrites the decided
   frequencies in place. *)
type instance = {
  corrupt : time:float -> Vec.t -> unit;
  actuate : Vec.t -> unit;
}

let nothing_to_corrupt ~time:_ _ = ()
let nothing_to_actuate _ = ()

let instantiate = function
  | Sensor_noise { seed; magnitude } ->
      let rng = Workload.Rng.create seed in
      {
        corrupt =
          (fun ~time:_ temps ->
            for c = 0 to Vec.dim temps - 1 do
              temps.(c) <-
                temps.(c)
                +. Workload.Rng.uniform rng ~lo:(-.magnitude) ~hi:magnitude
            done);
        actuate = nothing_to_actuate;
      }
  | Stuck_sensor { core; reading } ->
      let frozen = ref reading in
      {
        corrupt =
          (fun ~time:_ temps ->
            if core >= Vec.dim temps then
              invalid_arg
                (Printf.sprintf "Fault.stuck_sensor: core %d of a %d-core chip"
                   core (Vec.dim temps));
            (match !frozen with
            | None -> frozen := Some temps.(core)
            | Some _ -> ());
            match !frozen with
            | Some r -> temps.(core) <- r
            | None -> ());
        actuate = nothing_to_actuate;
      }
  | Stale_observation { epochs } ->
      (* Ring of the last [epochs + 1] readings: the front is exactly
         [epochs] decisions old once the buffer is warm, and the
         oldest reading available before that. *)
      let buffer = Queue.create () in
      {
        corrupt =
          (fun ~time:_ temps ->
            Queue.push (Vec.copy temps) buffer;
            if Queue.length buffer > epochs + 1 then ignore (Queue.pop buffer);
            Vec.blit ~src:(Queue.peek buffer) ~dst:temps);
        actuate = nothing_to_actuate;
      }
  | Quantized_actuator { levels } ->
      {
        corrupt = nothing_to_corrupt;
        actuate =
          (fun f ->
            for c = 0 to Vec.dim f - 1 do
              f.(c) <- ladder_floor levels f.(c)
            done);
      }

let wrap ~faults (c : Policy.controller) =
  match faults with
  | [] -> c
  | faults ->
      let instances = List.map instantiate faults in
      let decide obs =
        let temps = Vec.copy obs.Policy.core_temperatures in
        List.iter
          (fun i -> i.corrupt ~time:obs.Policy.time temps)
          instances;
        let corrupted =
          {
            obs with
            Policy.core_temperatures = temps;
            max_core_temperature = Vec.max temps;
          }
        in
        let f = Vec.copy (c.Policy.decide corrupted) in
        List.iter (fun i -> i.actuate f) instances;
        f
      in
      {
        Policy.controller_name =
          String.concat "+" (c.Policy.controller_name :: List.map name faults);
        decide;
      }
