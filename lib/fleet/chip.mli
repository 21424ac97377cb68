(** The fleet's chip: {!Sim.Chip}, the simulator's resumable step
    loop, under the name the fleet layer has always used. *)

include module type of struct
  include Sim.Chip
end
