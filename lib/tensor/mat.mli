(** Dense row-major float matrices on Bigarray storage.

    Provides the matrix algebra needed by the neural network ({!Nn}), the
    Gaussian process ({!Gp}: Cholesky factorization and triangular solves),
    and the causal-inference baseline (correlation matrices).  Storage is
    an unboxed, GC-opaque [float64] {!Bigarray.Array1}, so large buffers
    impose no marking work and can be shared read-only across domains.
    {!matmul} runs row-parallel on the ambient {!Domain_pool} when one is
    installed, with results bitwise identical to the sequential kernel.

    The neural-network hot paths call whole-matrix kernels ({!matmul_nt},
    {!matmul_tn}, {!pairwise_sq_dist}, {!relu}, …) rather than looping
    over {!get}/{!set}: the dev build compiles with [-opaque], so a
    per-element call from another module cannot be inlined and boxes its
    float (about 2 minor words per call). *)

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }
(** Row-major storage: element [(i, j)] lives at [data.{i * cols + j}]. *)

val create : int -> int -> float -> t
val zeros : int -> int -> t
val eye : int -> t
val init : int -> int -> (int -> int -> float) -> t
val copy : t -> t

val numel : t -> int
(** [rows * cols]. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val get_flat : t -> int -> float
(** Flat row-major access: [get_flat m i = m.data.{i}]. *)

val set_flat : t -> int -> float -> unit

val fill : t -> float -> unit
(** Set every element. *)

val to_array : t -> float array
(** Fresh flat row-major copy of the contents. *)

val of_array : int -> int -> float array -> t
(** [of_array rows cols a] copies the flat row-major [a].
    @raise Invalid_argument if [Array.length a <> rows * cols]. *)

val blit_from_array : ?src_pos:int -> float array -> t -> unit
(** Overwrite the matrix from a flat row-major array slice. *)

val row : t -> int -> Vec.t
(** Fresh copy of row [i]. *)

val col : t -> int -> Vec.t
val set_row : t -> int -> Vec.t -> unit

val of_rows : Vec.t array -> t
(** @raise Invalid_argument if rows have differing lengths or there are none. *)

val to_rows : t -> Vec.t array
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val hadamard : t -> t -> t

val add_into : dst:t -> t -> unit
(** [add_into ~dst src] accumulates [src] into [dst] elementwise. *)

val matmul : t -> t -> t
(** [matmul a b] with [a : m×k] and [b : k×n] is [m×n].  Every element
    [c(i,j)] is the dot product accumulated from [0.] with [k] ascending
    — the order the products below share.  The kernel computes four
    output columns per pass, each with its own accumulator, so blocking
    never reorders an addition.  When an ambient {!Domain_pool} is
    installed and the product is large enough, rows are computed in
    parallel with bitwise-identical results.
    @raise Invalid_argument on inner-dimension mismatch. *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b = matmul a (transpose b)] bit for bit, with
    [a : m×k], [b : n×k], without materializing [bᵀ].
    @raise Invalid_argument if the column counts differ. *)

val matmul_tn : t -> t -> t
(** [matmul_tn a b = matmul (transpose a) b] bit for bit, with
    [a : k×m], [b : k×n], without materializing [aᵀ].
    @raise Invalid_argument if the row counts differ. *)

val pairwise_sq_dist : t -> t -> t
(** [pairwise_sq_dist a b] with [a : n×d], [b : m×d] is the [n×m] matrix
    whose [(i,k)] element is [Vec.sq_dist (row a i) (row b k)], bit for
    bit (accumulated from [0.] with the column ascending).
    @raise Invalid_argument if the column counts differ. *)

(** {1 Layer kernels} *)

val add_row_into : dst:t -> t -> unit
(** [add_row_into ~dst r] adds the [1×cols] row [r] to every row of [dst]
    in place (a dense layer's bias).
    @raise Invalid_argument on a shape mismatch. *)

val add_col_sums_into : dst:t -> t -> unit
(** [add_col_sums_into ~dst m] adds the column sums of [m] (accumulated
    from [0.], rows ascending) to the [1×cols] row [dst], one addition per
    column.  @raise Invalid_argument on a shape mismatch. *)

val relu : t -> t
(** Elementwise [if v > 0. then v else 0.]. *)

val relu_backward : t -> t -> t
(** [relu_backward x dy] passes [dy] where [x > 0.] and [0.] elsewhere.
    @raise Invalid_argument on a shape mismatch. *)

val dropout_mask : Rng.t -> keep:float -> int -> int -> t
(** [dropout_mask rng ~keep rows cols]: each element, in row-major order,
    is [1. /. keep] with probability [keep] (one {!Rng.bernoulli} draw)
    and [0.] otherwise. *)

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec a x = a · x]. *)

val vec_mat : Vec.t -> t -> Vec.t
(** [vec_mat x a = xᵀ · a]. *)

val trace : t -> float
val frobenius : t -> float

val add_jitter : t -> float -> t
(** [add_jitter a eps] adds [eps] to the diagonal (numerical stabilisation
    before a Cholesky factorization). *)

val cholesky : t -> t
(** Lower-triangular Cholesky factor [L] with [L·Lᵀ = A], row by row:
    [L(i,j) = (A(i,j) − Σ_k L(i,k)·L(j,k)) / L(j,j)] for [j < i] and
    [L(i,i) = √(A(i,i) − Σ_k L(i,k)²)], each sum subtracted from the
    [A] element with [k] ascending.
    @raise Failure if the matrix is not (numerically) positive definite. *)

val solve_lower_in_place : t -> t -> unit
(** [solve_lower_in_place l b] overwrites the [n×m] [b] with [L⁻¹·b] by
    forward substitution over all [m] columns at once.  Each column is
    computed as {!solve_lower} computes a lone right-hand side: [x_i] is
    accumulated from [b_i], subtracting [L(i,k)·x_k] with [k] ascending,
    then divided by [L(i,i)].
    @raise Invalid_argument if [l] is not square or [b] has the wrong
    row count. *)

val solve_upper_in_place : t -> t -> unit
(** [solve_upper_in_place l b] overwrites [b] with [(Lᵀ)⁻¹·b] by back
    substitution over all columns: [x_i] is accumulated from [b_i],
    subtracting [L(k,i)·x_k] with [k] ascending from [i+1], then divided
    by [L(i,i)], for [i] descending.
    @raise Invalid_argument as {!solve_lower_in_place}. *)

val solve_lower : t -> Vec.t -> Vec.t
(** [solve_lower l b] solves [L·x = b] by forward substitution: the
    one-column case of {!solve_lower_in_place}. *)

val solve_upper : t -> Vec.t -> Vec.t
(** [solve_upper u b] solves [U·x = b] by back substitution, where [u] is
    interpreted as the transpose of a lower-triangular factor: the
    one-column case of {!solve_upper_in_place}. *)

val cholesky_solve : t -> Vec.t -> Vec.t
(** [cholesky_solve l b] solves [A·x = b] given the Cholesky factor [l]. *)

val log_det_from_cholesky : t -> float
(** [log det A] computed from its Cholesky factor. *)

val inverse_spd : t -> t
(** Inverse of a symmetric positive-definite matrix via Cholesky: column
    [j] is [cholesky_solve l e_j]. *)

val pp : Format.formatter -> t -> unit
