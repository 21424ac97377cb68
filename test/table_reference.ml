(* The paper's run-time rule over a heap table, kept as the oracle the
   served path ({!Protemp.Table_store.lookup_into}, which
   {!Protemp.Controller} and the online fallback use) is compared
   against.  It restates the rule with linear scans instead of the
   served path's binary searches: take the row covering the observed
   temperature, round the requirement up to a column (the top column
   when the requirement exceeds the grid), then fall back to the next
   lower feasible column. *)

open Linalg

(* Smallest index whose entry is >= [x], or [None]. *)
let first_at_least axis x =
  let n = Array.length axis in
  let rec go i =
    if i >= n then None else if axis.(i) >= x then Some i else go (i + 1)
  in
  go 0

let lookup table ~temperature ~required =
  let tstarts = Protemp.Table.tstarts table in
  let ftargets = Protemp.Table.ftargets table in
  match first_at_least tstarts temperature with
  | None -> None
  | Some row ->
      let start =
        match first_at_least ftargets required with
        | Some j -> j
        | None -> Array.length ftargets - 1
      in
      let rec down j =
        if j < 0 then None
        else
          match Protemp.Table.cell table row j with
          | Protemp.Table.Frequencies f -> Some (Vec.copy f)
          | Protemp.Table.Infeasible -> down (j - 1)
      in
      down start
