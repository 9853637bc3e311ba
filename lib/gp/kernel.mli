(** Covariance kernels for Gaussian-process regression.

    The Bayesian-optimization baseline of §2.3/§4.4 models the objective
    with a GP.  Both stationary kernels here operate on the feature
    encodings of configurations. *)

type t =
  | Squared_exponential of { lengthscale : float; variance : float }
  | Matern52 of { lengthscale : float; variance : float }

val default : t
(** Squared-exponential with lengthscale 1 and unit variance. *)

val of_sq_dist : t -> float -> float
(** [of_sq_dist k r2] is the kernel value at squared distance [r2]; every
    other function here computes its values through it. *)

val eval : t -> Wayfinder_tensor.Vec.t -> Wayfinder_tensor.Vec.t -> float
(** [eval k a b = of_sq_dist k (Vec.sq_dist a b)]. *)

val of_sq_dist_in_place : t -> Wayfinder_tensor.Mat.t -> unit
(** Replace every element [r2] of the matrix by [of_sq_dist k r2]. *)

val gram : t -> Wayfinder_tensor.Mat.t -> Wayfinder_tensor.Mat.t
(** [gram k x] where rows of [x] are inputs: the symmetric matrix
    [K(i,j) = k(x_i, x_j)], bit for bit [eval k (row x i) (row x j)] for
    [j <= i] (over {!Wayfinder_tensor.Mat.pairwise_sq_dist}), mirrored
    above the diagonal. *)
