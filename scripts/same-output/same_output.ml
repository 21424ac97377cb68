(* Prints, at %.17g, what the library computes for a fixed set of Eq. 3
   instances: solves, frontiers and profile solves (every field of the
   solution, duals included) and whole tables, on Niagara and
   big.LITTLE, for the variable, uniform, gradient and capped-gradient
   variants at strides 1 and 4 and margins 0 and 5 C, the benchmark's
   grids whole and, for its two table builds, in its 10 interleaved
   row blocks, and one table on a Niagara whose step matrix has a
   negative entry.  Two builds that print the same bytes compute the
   same bits.  Run by scripts/same-output.sh on the working tree and
   on a git revision:

     dune exec scripts/same-output/same_output.exe > out.txt *)

let pr = Printf.printf

let vec label v =
  pr "  %s" label;
  Array.iter (pr " %.17g") v;
  pr "\n"

let outcome label = function
  | Protemp.Model.Infeasible -> pr "%s infeasible\n" label
  | Protemp.Model.Feasible s ->
      pr "%s %s objective %.17g gap %.17g iterations %d total power %.17g\n"
        label
        (* Coerced, so that the driver also builds against a library
           without the active-set step. *)
        (match
           (s.Protemp.Model.settled_by
             :> [ `Closed_form | `Active_set | `Interior_point ])
         with
        | `Closed_form -> "closed-form"
        | `Active_set -> "active-set"
        | `Interior_point -> "interior-point")
        s.Protemp.Model.raw.Convex.Solve.objective_value
        s.Protemp.Model.raw.Convex.Solve.gap
        s.Protemp.Model.raw.Convex.Solve.iterations
        s.Protemp.Model.total_power;
      vec "f" s.Protemp.Model.frequencies;
      vec "p" s.Protemp.Model.core_powers;
      vec "x" s.Protemp.Model.raw.Convex.Solve.x;
      vec "dual" s.Protemp.Model.raw.Convex.Solve.dual;
      Option.iter (pr "  spread %.17g\n") s.Protemp.Model.gradient_spread

let axis lo hi n =
  Array.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let table label ~machine ~spec ~margin ~tstarts ~ftargets =
  let dense =
    Protemp.Dense_table.create ~margin ~machine ~spec ~tstarts ~ftargets ()
  in
  let stats = Protemp.Dense_table.fill ~domains:1 dense in
  let solver = Protemp.Dense_table.solver_stats dense in
  pr "table %s: %d cells, %d solves, %d warm, %d closed form, %d active \
      set, %d frontier verdicts, %d pruned, %d feasible, %d iterations, %d \
      unknown\n"
    label stats.Protemp.Dense_table.cells stats.Protemp.Dense_table.solves
    stats.Protemp.Dense_table.warm_hits
    (Protemp.Dense_table.closed_form_cells dense)
    (Protemp.Dense_table.active_set_cells dense)
    (Protemp.Dense_table.frontier_verdicts dense)
    stats.Protemp.Dense_table.pruned stats.Protemp.Dense_table.feasible
    solver.Convex.Conic.iterations solver.Convex.Conic.unknown;
  print_string
    (Protemp.Table.to_csv (Protemp.Dense_table.to_table ~domains:1 dense))

let () =
  let d = Protemp.Spec.default in
  let variants ~single_class =
    [
      ("variable", d);
      ("gradient", Protemp.Spec.with_gradient ~weight:0.5 d);
      ("capped-gradient", Protemp.Spec.with_gradient ~weight:0.5 ~cap:20.0 d);
    ]
    @
    if single_class then
      [ ("uniform", { d with Protemp.Spec.variant = Protemp.Spec.Uniform }) ]
    else []
  in
  List.iter
    (fun (name, machine) ->
      let fmax = machine.Sim.Machine.fmax in
      let single_class =
        Sim.Platform.single_class machine.Sim.Machine.platform
      in
      List.iter
        (fun (variant, spec) ->
          List.iter
            (fun stride ->
              List.iter
                (fun margin ->
                  let spec =
                    Protemp.Spec.guard_band ~margin
                      { spec with Protemp.Spec.constraint_stride = stride }
                  in
                  let label =
                    Printf.sprintf "%s %s stride %d margin %.0f" name variant
                      stride margin
                  in
                  List.iter
                    (fun tstart ->
                      List.iter
                        (fun frac ->
                          let ftarget = frac *. fmax in
                          outcome
                            (Printf.sprintf "%s solve %.17g %.17g" label tstart
                               ftarget)
                            (Protemp.Model.solve
                               (Protemp.Model.build ~machine ~spec ~tstart
                                  ~ftarget));
                          let t0 =
                            Array.init machine.Sim.Machine.n_nodes (fun i ->
                                tstart -. float_of_int (i mod 5))
                          in
                          outcome
                            (Printf.sprintf "%s profile %.17g %.17g" label
                               tstart ftarget)
                            (Protemp.Model.solve
                               (Protemp.Model.build_with_profile ~machine ~spec
                                  ~t0 ~ftarget)))
                        [ 0.3; 0.6; 0.9 ];
                      outcome
                        (Printf.sprintf "%s frontier %.17g" label tstart)
                        (Protemp.Model.solve_frontier
                           (Protemp.Model.build_frontier ~machine ~spec ~tstart)))
                    [ 27.0; 50.0; 70.0; 85.0; 95.0 ];
                  (* The table takes the margin itself. *)
                  let spec =
                    { spec with Protemp.Spec.tmax = d.Protemp.Spec.tmax }
                  in
                  table label ~machine ~spec ~margin
                    ~tstarts:(axis 27.0 100.0 8)
                    ~ftargets:(axis (0.1 *. fmax) (0.9 *. fmax) 6))
                [ 0.0; 5.0 ])
            [ 1; 4 ])
        (variants ~single_class))
    [
      ("niagara", Sim.Machine.niagara ()); ("biglittle", Sim.Machine.biglittle ());
    ];
  (* The benchmark's three grids at stride 4. *)
  let spec = { d with Protemp.Spec.constraint_stride = 4 } in
  table "niagara 100x100" ~machine:(Sim.Machine.niagara ()) ~spec ~margin:0.0
    ~tstarts:(axis 27.0 100.0 100) ~ftargets:(axis 1e8 1e9 100);
  table "biglittle 150x8" ~machine:(Sim.Machine.biglittle ()) ~spec
    ~margin:0.0 ~tstarts:(axis 27.0 100.0 150) ~ftargets:(axis 1e8 7e8 8);
  table "niagara margin 5 74x9" ~machine:(Sim.Machine.niagara ()) ~spec
    ~margin:5.0 ~tstarts:(axis 27.0 100.0 74) ~ftargets:(axis 1e8 9e8 9);
  (* The benchmark's table builds: 10 interleaved row blocks, block k
     holding rows k, k + 10, ..., each filled on its own. *)
  List.iter
    (fun (name, machine, tstarts, ftargets) ->
      for k = 0 to 9 do
        table
          (Printf.sprintf "%s block %d of 10" name k)
          ~machine ~spec ~margin:0.0
          ~tstarts:
            (Array.of_list
               (List.filteri (fun i _ -> i mod 10 = k) (Array.to_list tstarts)))
          ~ftargets
      done)
    [
      ( "niagara 100x100",
        Sim.Machine.niagara (),
        axis 27.0 100.0 100,
        axis 1e8 1e9 100 );
      ( "biglittle 150x8",
        Sim.Machine.biglittle (),
        axis 27.0 100.0 150,
        axis 1e8 7e8 8 );
    ];
  (* Niagara with one negative step entry, its first node's
     self-coupling: [a_1] is negative there, so at stride 1 the columns
     are not searchable, every row is prepared and checks every cell's
     column on its start, as [Model.solve] does. *)
  let niagara = Sim.Machine.niagara () in
  let thermal = niagara.Sim.Machine.thermal in
  let step = Linalg.Mat.copy thermal.Thermal.Rc_model.step in
  Linalg.Mat.set step 0 0 (-0.01);
  let machine =
    Sim.Machine.make_platform
      ~thermal:{ thermal with Thermal.Rc_model.step }
      ~core_nodes:niagara.Sim.Machine.core_nodes
      ~fixed_power:niagara.Sim.Machine.fixed_power
      ~platform:niagara.Sim.Machine.platform ()
  in
  table "niagara negative step 8x6" ~machine ~spec:d ~margin:0.0
    ~tstarts:(axis 27.0 100.0 8) ~ftargets:(axis 1e8 9e8 6)
