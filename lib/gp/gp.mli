(** Gaussian-process regression.

    Exact GP inference: fitting factorises the [n × n] Gram matrix with a
    Cholesky decomposition — O(n³) time, O(n²) memory — and adding a data
    point requires a full refit.  These are precisely the scalability
    limitations §2.3 attributes to Bayesian optimization, so this module
    doubles as the measured subject in the Figure 7 comparison context. *)

module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

type t

val fit : ?noise:float -> Kernel.t -> Mat.t -> Vec.t -> t
(** [fit kernel x y] with rows of [x] as inputs.  [noise] (default 1e-4) is
    the observation-noise variance added to the Gram diagonal.
    @raise Invalid_argument if row/target counts differ or there is no
    data. *)

val fit_auto : ?noise:float -> ?lengthscales:float list -> Mat.t -> Vec.t -> t
(** Squared-exponential GP with the lengthscale selected by log marginal
    likelihood over a small grid (default
    [\[0.25; 0.5; 1.0; 1.5; 2.5; 4.0\]]) — the standard type-II maximum
    likelihood model selection. *)

val size : t -> int
(** Number of training points. *)

val predict_batch : t -> Mat.t -> float array * float array
(** [predict_batch t q] is [(means, variances)] of the posterior at every
    row of [q]; each variance includes the observation noise floor and is
    clamped at 0.  It is the one posterior implementation: {!predict} and
    {!expected_improvement} are its one-row case.

    Ordering contract: for every finite query row [q_c] the results are
    bit for bit those of the scalar formula with [k*(i) = k(x_i, q_c)],

    - [mean = Vec.dot k* alpha] (accumulated from 0, [i] ascending),
    - [v = Mat.solve_lower l k*] (from [k*(i)], subtracting [l(i,k)·v_k]
      with [k] ascending, then dividing by [l(i,i)]),
    - [var = max 0. (k(q_c, q_c) + noise − Vec.dot v v)].

    It computes them as one {!Mat.pairwise_sq_dist} between the training
    inputs and [q], {!Kernel.of_sq_dist_in_place} on that [n × m] buffer,
    the means, one {!Mat.solve_lower_in_place} over all [m] columns, and
    the column sums of squares.
    @raise Invalid_argument if [q]'s width differs from the inputs'. *)

val predict : t -> Vec.t -> float * float
(** [(posterior mean, posterior variance)] at one query: the one-row case
    of {!predict_batch}. *)

val log_marginal_likelihood : t -> float

(** {1 Standard-normal helpers} (for acquisition functions) *)

val std_normal_pdf : float -> float
val std_normal_cdf : float -> float
(** Abramowitz–Stegun erf approximation; absolute error < 1.5e-7. *)

val expected_improvement_batch : t -> best:float -> Mat.t -> float array
(** EI for *maximisation*, [E\[max(f(x) - best, 0)\]] under the posterior,
    at every row of the matrix, from one {!predict_batch}.  Zero where the
    posterior standard deviation is below [1e-12]. *)

val expected_improvement : t -> best:float -> Vec.t -> float
(** {!expected_improvement_batch} at one query. *)
