(** Phase 2 (run time): the Pro-Temp DFS controller.

    Each DFS period it reads the maximum core temperature and the
    required average frequency from the engine's observation, and
    answers the precomputed frequency vector from the table.  When no
    table entry supports the situation (hotter than every row, or no
    feasible column) it stops the cores for one window — the
    conservative action the guarantee needs. *)

val of_store : store:Table_store.t -> Sim.Policy.controller
(** The decision rule served allocation-free by
    {!Table_store.lookup_into}.  The store is safe to share: a fleet
    of chips opens one image and every controller instance keeps only
    its private lookup buffer. *)

val create : table:Table.t -> Sim.Policy.controller
(** {!of_store} on {!Table_store.of_table}[ table]: the image is built
    once, and one table can drive many runs. *)
