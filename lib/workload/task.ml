type benchmark = Web | Multimedia | Compute

type t = { id : int; arrival : float; work : float; benchmark : benchmark }

let benchmark_name = function
  | Web -> "web"
  | Multimedia -> "multimedia"
  | Compute -> "compute"

let service_time task ~frequency ~fmax =
  if frequency <= 0.0 then
    invalid_arg "Task.service_time: non-positive frequency";
  task.work *. fmax /. frequency

let compare_by_arrival t1 t2 = Float.compare t1.arrival t2.arrival
