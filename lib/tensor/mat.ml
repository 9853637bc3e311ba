type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : buffer }

let alloc n : buffer = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let create rows cols x =
  let data = alloc (rows * cols) in
  Bigarray.Array1.fill data x;
  { rows; cols; data }

let zeros rows cols = create rows cols 0.

let numel m = m.rows * m.cols
let get_flat m i = m.data.{i}
let set_flat m i x = m.data.{i} <- x
let fill m x = Bigarray.Array1.fill m.data x

let init rows cols f =
  let data = alloc (rows * cols) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.{(i * cols) + j} <- f i j
    done
  done;
  { rows; cols; data }

let eye n = init n n (fun i j -> if i = j then 1. else 0.)

let copy m =
  let data = alloc (numel m) in
  Bigarray.Array1.blit m.data data;
  { m with data }

let get m i j = m.data.{(i * m.cols) + j}
let set m i j x = m.data.{(i * m.cols) + j} <- x

(* Hot loops stay inside this module.  The dev build compiles with
   [-opaque], so nothing is inlined across modules: each [get]/[set] made
   from another module is a real call that boxes its float (~2 minor
   words), and so does every element an [init] closure returns.  The
   whole-matrix kernels below read and write [data] directly instead. *)

let to_array m =
  let n = numel m in
  let a = Array.make n 0. in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Bigarray.Array1.unsafe_get m.data i)
  done;
  a

let of_array rows cols a =
  if Array.length a <> rows * cols then invalid_arg "Mat.of_array: length mismatch";
  let data = alloc (rows * cols) in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set data i (Array.unsafe_get a i)
  done;
  { rows; cols; data }

let blit_from_array ?(src_pos = 0) a m =
  let n = numel m in
  if src_pos < 0 || src_pos + n > Array.length a then
    invalid_arg "Mat.blit_from_array: source too short";
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set m.data i (Array.unsafe_get a (src_pos + i))
  done

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row: index out of bounds";
  let r = Array.make m.cols 0. in
  let base = i * m.cols in
  for j = 0 to m.cols - 1 do
    Array.unsafe_set r j (Bigarray.Array1.unsafe_get m.data (base + j))
  done;
  r

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: index out of bounds";
  let c = Array.make m.rows 0. in
  for i = 0 to m.rows - 1 do
    Array.unsafe_set c i (Bigarray.Array1.unsafe_get m.data ((i * m.cols) + j))
  done;
  c

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dimension mismatch";
  if i < 0 || i >= m.rows then invalid_arg "Mat.set_row: index out of bounds";
  let base = i * m.cols in
  for j = 0 to m.cols - 1 do
    Bigarray.Array1.unsafe_set m.data (base + j) (Array.unsafe_get v j)
  done

let of_rows rows =
  match Array.length rows with
  | 0 -> invalid_arg "Mat.of_rows: no rows"
  | n ->
    let cols = Array.length rows.(0) in
    let m = zeros n cols in
    Array.iteri
      (fun i r ->
        if Array.length r <> cols then invalid_arg "Mat.of_rows: ragged rows";
        set_row m i r)
      rows;
    m

let to_rows m = Array.init m.rows (row m)

let transpose m =
  let r = m.rows and c = m.cols in
  let src = m.data and dst = alloc (r * c) in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      Bigarray.Array1.unsafe_set dst ((j * r) + i) (Bigarray.Array1.unsafe_get src ((i * c) + j))
    done
  done;
  { rows = c; cols = r; data = dst }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  let ad = a.data and bd = b.data and cd = alloc (numel a) in
  for i = 0 to numel a - 1 do
    Bigarray.Array1.unsafe_set cd i
      (Bigarray.Array1.unsafe_get ad i +. Bigarray.Array1.unsafe_get bd i)
  done;
  { a with data = cd }

let sub a b =
  check_same "sub" a b;
  let ad = a.data and bd = b.data and cd = alloc (numel a) in
  for i = 0 to numel a - 1 do
    Bigarray.Array1.unsafe_set cd i
      (Bigarray.Array1.unsafe_get ad i -. Bigarray.Array1.unsafe_get bd i)
  done;
  { a with data = cd }

let hadamard a b =
  check_same "hadamard" a b;
  let ad = a.data and bd = b.data and cd = alloc (numel a) in
  for i = 0 to numel a - 1 do
    Bigarray.Array1.unsafe_set cd i
      (Bigarray.Array1.unsafe_get ad i *. Bigarray.Array1.unsafe_get bd i)
  done;
  { a with data = cd }

let scale s m =
  let c = { m with data = alloc (numel m) } in
  for i = 0 to numel m - 1 do
    c.data.{i} <- s *. m.data.{i}
  done;
  c

let add_into ~dst src =
  check_same "add_into" dst src;
  for i = 0 to numel dst - 1 do
    dst.data.{i} <- dst.data.{i} +. src.data.{i}
  done

(* ------------------------------------------------------------------ *)
(* Layer kernels                                                       *)
(* ------------------------------------------------------------------ *)

let check_bias_row name m row =
  if row.rows <> 1 || row.cols <> m.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: expected a 1x%d row, got %dx%d" name m.cols row.rows row.cols)

let add_row_into ~dst row =
  check_bias_row "add_row_into" dst row;
  let dd = dst.data and rd = row.data and n = dst.cols in
  for i = 0 to dst.rows - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dd (base + j)
        (Bigarray.Array1.unsafe_get dd (base + j) +. Bigarray.Array1.unsafe_get rd j)
    done
  done

(* Column sums are accumulated from 0 with rows ascending, then added to
   [dst] in one addition per column. *)
let add_col_sums_into ~dst src =
  check_bias_row "add_col_sums_into" src dst;
  let dd = dst.data and sd = src.data and n = src.cols in
  for j = 0 to n - 1 do
    let acc = ref 0. in
    for i = 0 to src.rows - 1 do
      acc := !acc +. Bigarray.Array1.unsafe_get sd ((i * n) + j)
    done;
    Bigarray.Array1.unsafe_set dd j (Bigarray.Array1.unsafe_get dd j +. !acc)
  done

let relu m =
  let src = m.data and dst = alloc (numel m) in
  for i = 0 to numel m - 1 do
    let v = Bigarray.Array1.unsafe_get src i in
    Bigarray.Array1.unsafe_set dst i (if v > 0. then v else 0.)
  done;
  { m with data = dst }

let relu_backward x dy =
  check_same "relu_backward" x dy;
  let xd = x.data and gd = dy.data and dst = alloc (numel x) in
  for i = 0 to numel x - 1 do
    Bigarray.Array1.unsafe_set dst i
      (if Bigarray.Array1.unsafe_get xd i > 0. then Bigarray.Array1.unsafe_get gd i else 0.)
  done;
  { x with data = dst }

let dropout_mask rng ~keep rows cols =
  let data = alloc (rows * cols) in
  let scale = 1. /. keep in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set data i (if Rng.bernoulli rng keep then scale else 0.)
  done;
  { rows; cols; data }

(* d(i,k) = Σ_j (a(i,j) − b(k,j))², accumulated from 0 with j ascending —
   the order of {!Vec.sq_dist}.  Like the product kernel below, the loop
   is blocked over two rows of [a] and four rows of [b], each of the eight
   distances with its own accumulator: the dependency chains overlap
   instead of each addition waiting on the previous one, and no addition
   is reordered. *)
let pairwise_sq_dist a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.pairwise_sq_dist: dimension mismatch (%d vs %d)" a.cols b.cols);
  let n = a.rows and m = b.rows and d = a.cols in
  let ad = a.data and bd = b.data and out = alloc (n * m) in
  let pair_quad i k =
    let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
    let acc4 = ref 0. and acc5 = ref 0. and acc6 = ref 0. and acc7 = ref 0. in
    let a0 = i * d and b0 = k * d in
    for j = 0 to d - 1 do
      (* One [b] element at a time keeps few floats live, so the eight
         accumulators stay in registers. *)
      let x = Bigarray.Array1.unsafe_get ad (a0 + j)
      and y = Bigarray.Array1.unsafe_get ad (a0 + d + j) in
      let c = Bigarray.Array1.unsafe_get bd (b0 + j) in
      let dx = x -. c and dy = y -. c in
      acc0 := !acc0 +. (dx *. dx);
      acc4 := !acc4 +. (dy *. dy);
      let c = Bigarray.Array1.unsafe_get bd (b0 + d + j) in
      let dx = x -. c and dy = y -. c in
      acc1 := !acc1 +. (dx *. dx);
      acc5 := !acc5 +. (dy *. dy);
      let c = Bigarray.Array1.unsafe_get bd (b0 + (2 * d) + j) in
      let dx = x -. c and dy = y -. c in
      acc2 := !acc2 +. (dx *. dx);
      acc6 := !acc6 +. (dy *. dy);
      let c = Bigarray.Array1.unsafe_get bd (b0 + (3 * d) + j) in
      let dx = x -. c and dy = y -. c in
      acc3 := !acc3 +. (dx *. dx);
      acc7 := !acc7 +. (dy *. dy)
    done;
    let o = (i * m) + k in
    Bigarray.Array1.unsafe_set out o !acc0;
    Bigarray.Array1.unsafe_set out (o + 1) !acc1;
    Bigarray.Array1.unsafe_set out (o + 2) !acc2;
    Bigarray.Array1.unsafe_set out (o + 3) !acc3;
    Bigarray.Array1.unsafe_set out (o + m) !acc4;
    Bigarray.Array1.unsafe_set out (o + m + 1) !acc5;
    Bigarray.Array1.unsafe_set out (o + m + 2) !acc6;
    Bigarray.Array1.unsafe_set out (o + m + 3) !acc7
  in
  let single i k =
    let a0 = i * d and b0 = k * d in
    let acc = ref 0. in
    for j = 0 to d - 1 do
      let delta =
        Bigarray.Array1.unsafe_get ad (a0 + j) -. Bigarray.Array1.unsafe_get bd (b0 + j)
      in
      acc := !acc +. (delta *. delta)
    done;
    Bigarray.Array1.unsafe_set out ((i * m) + k) !acc
  in
  let blocks = m / 4 in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n then begin
      for kb = 0 to blocks - 1 do
        pair_quad !i (kb * 4)
      done;
      for k = blocks * 4 to m - 1 do
        single !i k;
        single (!i + 1) k
      done;
      i := !i + 2
    end
    else begin
      for k = 0 to m - 1 do
        single !i k
      done;
      incr i
    end
  done;
  { rows = n; cols = m; data = out }

(* ------------------------------------------------------------------ *)
(* Matrix product                                                      *)
(* ------------------------------------------------------------------ *)

(* The one product kernel behind {!matmul}, {!matmul_nt} and {!matmul_tn}:
   for every row [i] in [lo, hi) and column [j] in [0, n),

     c(i,j) = Σ_k a.{i·ars + k·aks} · b.{k·bks + j·bjs}

   accumulated from 0 with [k] ascending.  Columns are register-blocked
   four at a time: each of the four outputs keeps its own accumulator and
   its own k-ascending order, so blocking only shares the load of
   a(i,k) and never reorders an addition.  The strides let one kernel
   read either operand transposed in place.  The buffers are annotated
   [buffer] so every access compiles to an unboxed load. *)
let gemm_rows ~(ad : buffer) ~ars ~aks ~(bd : buffer) ~bks ~bjs ~(cd : buffer) ~n ~kd lo hi =
  let blocks = n / 4 in
  let bjs2 = 2 * bjs and bjs3 = 3 * bjs in
  (* One row, four columns. *)
  let row_quad i j =
    let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
    let ai = ref (i * ars) and bi = ref (j * bjs) in
    for _ = 1 to kd do
      let x = Bigarray.Array1.unsafe_get ad !ai and b = !bi in
      acc0 := !acc0 +. (x *. Bigarray.Array1.unsafe_get bd b);
      acc1 := !acc1 +. (x *. Bigarray.Array1.unsafe_get bd (b + bjs));
      acc2 := !acc2 +. (x *. Bigarray.Array1.unsafe_get bd (b + bjs2));
      acc3 := !acc3 +. (x *. Bigarray.Array1.unsafe_get bd (b + bjs3));
      ai := !ai + aks;
      bi := b + bks
    done;
    let c = (i * n) + j in
    Bigarray.Array1.unsafe_set cd c !acc0;
    Bigarray.Array1.unsafe_set cd (c + 1) !acc1;
    Bigarray.Array1.unsafe_set cd (c + 2) !acc2;
    Bigarray.Array1.unsafe_set cd (c + 3) !acc3
  in
  (* Rows i and i+1, four columns: eight independent accumulators. *)
  let pair_quad i j =
    let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
    let acc4 = ref 0. and acc5 = ref 0. and acc6 = ref 0. and acc7 = ref 0. in
    let ai = ref (i * ars) and bi = ref (j * bjs) in
    for _ = 1 to kd do
      let a = !ai and b = !bi in
      let x = Bigarray.Array1.unsafe_get ad a and y = Bigarray.Array1.unsafe_get ad (a + ars) in
      (* One [b] element at a time keeps few floats live, so the eight
         accumulators stay in registers. *)
      let v = Bigarray.Array1.unsafe_get bd b in
      acc0 := !acc0 +. (x *. v);
      acc4 := !acc4 +. (y *. v);
      let v = Bigarray.Array1.unsafe_get bd (b + bjs) in
      acc1 := !acc1 +. (x *. v);
      acc5 := !acc5 +. (y *. v);
      let v = Bigarray.Array1.unsafe_get bd (b + bjs2) in
      acc2 := !acc2 +. (x *. v);
      acc6 := !acc6 +. (y *. v);
      let v = Bigarray.Array1.unsafe_get bd (b + bjs3) in
      acc3 := !acc3 +. (x *. v);
      acc7 := !acc7 +. (y *. v);
      ai := a + aks;
      bi := b + bks
    done;
    let c = (i * n) + j in
    Bigarray.Array1.unsafe_set cd c !acc0;
    Bigarray.Array1.unsafe_set cd (c + 1) !acc1;
    Bigarray.Array1.unsafe_set cd (c + 2) !acc2;
    Bigarray.Array1.unsafe_set cd (c + 3) !acc3;
    Bigarray.Array1.unsafe_set cd (c + n) !acc4;
    Bigarray.Array1.unsafe_set cd (c + n + 1) !acc5;
    Bigarray.Array1.unsafe_set cd (c + n + 2) !acc6;
    Bigarray.Array1.unsafe_set cd (c + n + 3) !acc7
  in
  let single i j =
    let acc = ref 0. in
    let ai = ref (i * ars) and bi = ref (j * bjs) in
    for _ = 1 to kd do
      acc := !acc +. (Bigarray.Array1.unsafe_get ad !ai *. Bigarray.Array1.unsafe_get bd !bi);
      ai := !ai + aks;
      bi := !bi + bks
    done;
    Bigarray.Array1.unsafe_set cd ((i * n) + j) !acc
  in
  let i = ref lo in
  while !i < hi do
    let paired = !i + 1 < hi in
    for jb = 0 to blocks - 1 do
      if paired then pair_quad !i (jb * 4) else row_quad !i (jb * 4)
    done;
    for j = blocks * 4 to n - 1 do
      single !i j;
      if paired then single (!i + 1) j
    done;
    i := !i + if paired then 2 else 1
  done

(* Products below this many multiply-adds are not worth a trip through
   the domain pool; the pool round-trip costs on the order of a small
   matmul itself. *)
let par_flop_threshold = 32_768

(* [m×n] result.  Every c(i,j) is produced by exactly one lane with the
   identical accumulation order, so the result is bitwise identical
   whether the row range [0, m) is processed inline or split across any
   number of domains — which is what lets the ambient pool stay invisible
   to the engine's determinism oracle.  Row chunks double as cache
   blocking. *)
let gemm (a : t) ~ars ~aks (b : t) ~bks ~bjs ~m ~n ~kd =
  let cd = alloc (m * n) in
  let rows lo hi = gemm_rows ~ad:a.data ~ars ~aks ~bd:b.data ~bks ~bjs ~cd ~n ~kd lo hi in
  (match Domain_pool.get_default () with
  | Some pool when m >= 2 && m * n * kd >= par_flop_threshold ->
    Domain_pool.parallel_for pool m rows
  | _ -> rows 0 m);
  { rows = m; cols = n; data = cd }

let matmul a b =
  if a.cols <> b.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dimension mismatch (%d vs %d)" a.cols b.rows);
  gemm a ~ars:a.cols ~aks:1 b ~bks:b.cols ~bjs:1 ~m:a.rows ~n:b.cols ~kd:a.cols

let matmul_nt a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.matmul_nt: inner dimension mismatch (%d vs %d)" a.cols b.cols);
  gemm a ~ars:a.cols ~aks:1 b ~bks:1 ~bjs:b.cols ~m:a.rows ~n:b.rows ~kd:a.cols

let matmul_tn a b =
  if a.rows <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul_tn: inner dimension mismatch (%d vs %d)" a.rows b.rows);
  gemm a ~ars:1 ~aks:a.cols b ~bks:b.cols ~bjs:1 ~m:a.cols ~n:b.cols ~kd:a.rows

let mat_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mat_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (get a i j *. x.(j))
      done;
      !acc)

let vec_mat x a =
  if a.rows <> Array.length x then invalid_arg "Mat.vec_mat: dimension mismatch";
  Array.init a.cols (fun j ->
      let acc = ref 0. in
      for i = 0 to a.rows - 1 do
        acc := !acc +. (x.(i) *. get a i j)
      done;
      !acc)

let trace m =
  let n = min m.rows m.cols in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius m =
  let acc = ref 0. in
  for i = 0 to numel m - 1 do
    let x = m.data.{i} in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let add_jitter m eps =
  let c = copy m in
  for i = 0 to min m.rows m.cols - 1 do
    set c i i (get c i i +. eps)
  done;
  c

(* Row [i] of the factor: L(i,j) = (a(i,j) − Σ_k L(i,k)·L(j,k)) / L(j,j),
   k ascending, and L(i,i) = √(a(i,i) − Σ_k L(i,k)²). *)
let cholesky a =
  if a.rows <> a.cols then invalid_arg "Mat.cholesky: not square";
  let n = a.rows in
  let l = zeros n n in
  let ad = a.data and ld = l.data in
  for i = 0 to n - 1 do
    let ri = i * n in
    for j = 0 to i do
      let rj = j * n in
      let acc = ref (Bigarray.Array1.unsafe_get ad (ri + j)) in
      for k = 0 to j - 1 do
        acc :=
          !acc -. (Bigarray.Array1.unsafe_get ld (ri + k) *. Bigarray.Array1.unsafe_get ld (rj + k))
      done;
      if i = j then begin
        if !acc <= 0. then failwith "Mat.cholesky: matrix not positive definite";
        Bigarray.Array1.unsafe_set ld (ri + i) (sqrt !acc)
      end
      else Bigarray.Array1.unsafe_set ld (ri + j) (!acc /. Bigarray.Array1.unsafe_get ld (rj + j))
    done
  done;
  l

(* Forward ([lower]) or back substitution with the square factor [l]
   over every column of [b], in place.  Each column is solved exactly as
   a lone right-hand side would be: row [i] becomes

     (b_i − Σ_k t(i,k)·x_k) / l(i,i)

   accumulated from [b_i] with [k] ascending, where [t = l] (k < i, rows
   ascending) or [t = lᵀ] (k > i, rows descending).  Columns are
   register-blocked four at a time, each with its own accumulator, so
   blocking only shares the load of t(i,k) and never reorders an
   operation. *)
let substitute ~lower l b =
  let n = l.rows in
  if l.cols <> n || b.rows <> n then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d factor, %d rows)"
         (if lower then "solve_lower" else "solve_upper")
         l.rows l.cols b.rows);
  let m = b.cols and ld = l.data and bd = b.data in
  (* t(i,k) lives at [tbase i + k·tstride]. *)
  let tbase i = if lower then i * n else i and tstride = if lower then 1 else n in
  let row i =
    let k0 = if lower then 0 else i + 1 and k1 = if lower then i - 1 else n - 1 in
    let t0 = tbase i and diag = Bigarray.Array1.unsafe_get ld ((i * n) + i) in
    let quad c =
      let o = (i * m) + c in
      let acc0 = ref (Bigarray.Array1.unsafe_get bd o)
      and acc1 = ref (Bigarray.Array1.unsafe_get bd (o + 1))
      and acc2 = ref (Bigarray.Array1.unsafe_get bd (o + 2))
      and acc3 = ref (Bigarray.Array1.unsafe_get bd (o + 3)) in
      for k = k0 to k1 do
        let t = Bigarray.Array1.unsafe_get ld (t0 + (k * tstride)) and x = (k * m) + c in
        acc0 := !acc0 -. (t *. Bigarray.Array1.unsafe_get bd x);
        acc1 := !acc1 -. (t *. Bigarray.Array1.unsafe_get bd (x + 1));
        acc2 := !acc2 -. (t *. Bigarray.Array1.unsafe_get bd (x + 2));
        acc3 := !acc3 -. (t *. Bigarray.Array1.unsafe_get bd (x + 3))
      done;
      Bigarray.Array1.unsafe_set bd o (!acc0 /. diag);
      Bigarray.Array1.unsafe_set bd (o + 1) (!acc1 /. diag);
      Bigarray.Array1.unsafe_set bd (o + 2) (!acc2 /. diag);
      Bigarray.Array1.unsafe_set bd (o + 3) (!acc3 /. diag)
    in
    let single c =
      let o = (i * m) + c in
      let acc = ref (Bigarray.Array1.unsafe_get bd o) in
      for k = k0 to k1 do
        acc :=
          !acc
          -. (Bigarray.Array1.unsafe_get ld (t0 + (k * tstride))
             *. Bigarray.Array1.unsafe_get bd ((k * m) + c))
      done;
      Bigarray.Array1.unsafe_set bd o (!acc /. diag)
    in
    let blocks = m / 4 in
    for cb = 0 to blocks - 1 do
      quad (cb * 4)
    done;
    for c = blocks * 4 to m - 1 do
      single c
    done
  in
  if lower then
    for i = 0 to n - 1 do
      row i
    done
  else
    for i = n - 1 downto 0 do
      row i
    done

let solve_lower_in_place l b = substitute ~lower:true l b
let solve_upper_in_place l b = substitute ~lower:false l b

(* A vector right-hand side is the one-column case. *)
let solve_vec solve l b =
  let x = of_array (Array.length b) 1 b in
  solve l x;
  to_array x

let solve_lower l b = solve_vec solve_lower_in_place l b
let solve_upper l b = solve_vec solve_upper_in_place l b
let cholesky_solve l b = solve_upper l (solve_lower l b)

let log_det_from_cholesky l =
  let acc = ref 0. in
  for i = 0 to l.rows - 1 do
    acc := !acc +. log (get l i i)
  done;
  2. *. !acc

(* Column j of the inverse is [cholesky_solve l e_j]: both substitutions
   run over all n unit columns at once. *)
let inverse_spd a =
  let l = cholesky a in
  let inv = eye a.rows in
  solve_lower_in_place l inv;
  solve_upper_in_place l inv;
  inv

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Vec.pp ppf (row m i)
  done;
  Format.fprintf ppf "@]"
