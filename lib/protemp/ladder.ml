open Linalg

type t = { levels : float array (* ascending, positive *) }

let make = function
  | [] -> invalid_arg "Ladder.make: empty ladder"
  | levels ->
      List.iter
        (fun f ->
          if f <= 0.0 then invalid_arg "Ladder.make: non-positive level")
        levels;
      { levels = Array.of_list (List.sort_uniq Float.compare levels) }

let uniform ~fmax ~levels =
  if levels < 1 then invalid_arg "Ladder.uniform: need at least one level";
  if fmax <= 0.0 then invalid_arg "Ladder.uniform: non-positive fmax";
  make
    (List.init levels (fun i ->
         fmax *. float_of_int (i + 1) /. float_of_int levels))

let levels t = Array.copy t.levels

let floor t f = Sim.Fault.ladder_floor t.levels f

let quantize_table t table =
  let tstarts = Table.tstarts table in
  let ftargets = Table.ftargets table in
  let n_cols = Array.length ftargets in
  let cells =
    Array.make_matrix (Array.length tstarts) n_cols Table.Infeasible
  in
  Array.iteri
    (fun i _ ->
      for j = 0 to n_cols - 1 do
        match Table.cell table i j with
        | Table.Infeasible -> ()
        | Table.Frequencies f ->
            let q = Vec.map (floor t) f in
            let sum = Vec.sum q in
            let n = float_of_int (Vec.dim q) in
            (* The highest column whose throughput promise the
               quantized vector still honours.  Flooring onto the
               ladder can pull the total below [n * ftargets.(j)], and
               a cell left in column [j] would then over-promise
               through the served lookup; re-labelling keeps every stored
               cell's promise true.  Thermal safety is unaffected: [q]
               is elementwise at most a vector certified for this very
               row. *)
            let k = ref (-1) in
            for c = 0 to n_cols - 1 do
              let target = n *. ftargets.(c) in
              if sum >= target -. (1e-6 *. Float.max 1.0 target) then k := c
            done;
            if !k >= 0 then begin
              (* Several source cells can land on the same column;
                 keep the one delivering the most throughput (all are
                 certified for row [i]). *)
              match cells.(i).(!k) with
              | Table.Infeasible -> cells.(i).(!k) <- Table.Frequencies q
              | Table.Frequencies existing ->
                  if sum > Vec.sum existing then
                    cells.(i).(!k) <- Table.Frequencies q
            end
      done)
    tstarts;
  Table.make ~tstarts ~ftargets cells
