module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t =
  | Squared_exponential of { lengthscale : float; variance : float }
  | Matern52 of { lengthscale : float; variance : float }

let default = Squared_exponential { lengthscale = 1.; variance = 1. }

(* The one place a kernel value is computed.  Matérn's [r] is
   [sqrt r2 /. lengthscale], exactly as [Vec.dist a b /. lengthscale]. *)
let of_sq_dist k r2 =
  match k with
  | Squared_exponential { lengthscale; variance } ->
    variance *. exp (-.r2 /. (2. *. lengthscale *. lengthscale))
  | Matern52 { lengthscale; variance } ->
    let r = sqrt r2 /. lengthscale in
    let c = sqrt 5. *. r in
    variance *. (1. +. c +. (5. *. r *. r /. 3.)) *. exp (-.c)

let eval k a b = of_sq_dist k (Vec.sq_dist a b)

let of_sq_dist_in_place k (m : Mat.t) =
  let d = m.Mat.data in
  for i = 0 to Mat.numel m - 1 do
    Bigarray.Array1.unsafe_set d i (of_sq_dist k (Bigarray.Array1.unsafe_get d i))
  done

(* The lower triangle, mirrored: K(j,i) is the value computed for K(i,j). *)
let gram k x =
  let g = Mat.pairwise_sq_dist x x in
  let n = g.Mat.rows and d = g.Mat.data in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let v = of_sq_dist k (Bigarray.Array1.unsafe_get d ((i * n) + j)) in
      Bigarray.Array1.unsafe_set d ((i * n) + j) v;
      Bigarray.Array1.unsafe_set d ((j * n) + i) v
    done
  done;
  g
