open Linalg

type solution = {
  x : Vec.t;
  objective_value : float;
  dual : Vec.t;
  gap : float;
  iterations : int;
}
