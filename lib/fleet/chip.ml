include Sim.Chip
