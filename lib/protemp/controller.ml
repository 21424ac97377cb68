open Linalg

let of_store ~store =
  (* The store is shared (one mmap, page-cache-backed pages) and the
     lookup buffer is per-controller, so a fleet of chips can all poll
     one image concurrently with no shared mutable state.  The engine
     consumes the decision vector at the epoch boundary, so reusing
     the buffer across epochs keeps every table hit allocation-free. *)
  let buf = Vec.zeros (Table_store.n_cores store) in
  {
    Sim.Policy.controller_name = "pro-temp";
    decide =
      (fun obs ->
        let n = Vec.dim obs.Sim.Policy.core_temperatures in
        if Vec.dim buf = 0 then
          (* Every cell infeasible: lookups can never hit; stop. *)
          Vec.zeros n
        else if Vec.dim buf <> n then
          invalid_arg "Protemp.Controller: table core count mismatch"
        else if
          Table_store.lookup_into store
            ~temperature:obs.Sim.Policy.max_core_temperature
            ~required:obs.Sim.Policy.required_frequency ~into:buf
        then buf
        else begin
          (* No feasible entry: stop the cores for a window. *)
          Vec.fill buf 0.0;
          buf
        end);
  }

let create ~table = of_store ~store:(Table_store.of_table table)
