(* Bit-exactness of the numeric kernels on the DTM hot path, and an
   allocation ratchet over it.

   Every property compares [Int64.bits_of_float] of the kernel against a
   plain reference written the way the code computed it before the
   kernels existed — a naive k-ascending triple loop, [Vec.sq_dist], a
   scalar-predict sensitivity sweep, [String.concat] of value tokens —
   so "faster" can never silently mean "different". *)

module T = Wayfinder_tensor
module Mat = T.Mat
module Vec = T.Vec
module Rng = T.Rng
module Stat = T.Stat
module Dataset = T.Dataset
module Domain_pool = T.Domain_pool
module Network = Wayfinder_nn.Network
module Layer = Wayfinder_nn.Layer
module Param = Wayfinder_configspace.Param
module Dtm = Wayfinder_deeptune.Dtm
module Scoring = Wayfinder_deeptune.Scoring
module Gp = Wayfinder_gp.Gp
module Kernel = Wayfinder_gp.Kernel

let bits_equal xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) xs ys

(* Mostly ordinary values, with signed zeros mixed in. *)
let float_gen =
  QCheck2.Gen.(frequency [ (8, float_range (-100.) 100.); (1, return 0.); (1, return (-0.)) ])

let mat_gen rows cols =
  QCheck2.Gen.map (Mat.of_array rows cols) (QCheck2.Gen.array_size (QCheck2.Gen.return (rows * cols)) float_gen)

(* c(i,j) = Σ_k at i k · bt k j from 0, k ascending. *)
let naive ~m ~n ~kd at bt =
  Array.init (m * n) (fun idx ->
      let i = idx / n and j = idx mod n in
      let acc = ref 0. in
      for k = 0 to kd - 1 do
        acc := !acc +. (at i k *. bt k j)
      done;
      !acc)

(* Shapes: widths 1..13 cover every residue mod 4 of the column blocking,
   odd row counts the row pairing, and kd = 0 the empty sum. *)
let small_shape = QCheck2.Gen.(triple (int_range 1 9) (int_range 0 9) (int_range 1 13))

(* Big enough (≥ 32768 multiply-adds) that the ambient pool splits rows. *)
let pooled_shape = QCheck2.Gen.(triple (int_range 32 41) (int_range 32 37) (int_range 32 39))

let product_case shape =
  QCheck2.Gen.(
    shape >>= fun (m, kd, n) ->
    map2 (fun a b -> (m, kd, n, a, b)) (mat_gen m kd) (mat_gen kd n))

let print_case (m, kd, n, _, _) = Printf.sprintf "m=%d k=%d n=%d" m kd n

let check_products (m, kd, n, a, b) =
  let expected = naive ~m ~n ~kd (Mat.get a) (Mat.get b) in
  let at = Mat.transpose a and bt = Mat.transpose b in
  bits_equal expected (Mat.to_array (Mat.matmul a b))
  && bits_equal expected (Mat.matmul_nt a bt |> Mat.to_array)
  && bits_equal expected (Mat.matmul_tn at b |> Mat.to_array)

let prop_products =
  QCheck2.Test.make ~name:"matmul/_nt/_tn bitwise equal the naive triple loop" ~count:300
    ~print:print_case (product_case small_shape) check_products

let prop_products_1x1 =
  QCheck2.Test.make ~name:"1x1 products" ~count:50 ~print:print_case
    (product_case (QCheck2.Gen.return (1, 1, 1)))
    check_products

let pool = lazy (Domain_pool.create 4)

let prop_products_pooled =
  QCheck2.Test.make ~name:"products under a 4-domain ambient pool" ~count:20 ~print:print_case
    (product_case pooled_shape) (fun case ->
      Domain_pool.with_default (Some (Lazy.force pool)) (fun () -> check_products case))

let prop_pairwise_sq_dist =
  QCheck2.Test.make ~name:"pairwise_sq_dist bitwise equals Vec.sq_dist" ~count:300
    QCheck2.Gen.(
      triple (int_range 1 9) (int_range 1 11) (int_range 0 9) >>= fun (n, m, d) ->
      pair (mat_gen n d) (mat_gen m d))
    (fun (a, b) ->
      let expected =
        Array.init (a.Mat.rows * b.Mat.rows) (fun idx ->
            Vec.sq_dist (Mat.row a (idx / b.Mat.rows)) (Mat.row b (idx mod b.Mat.rows)))
      in
      bits_equal expected (Mat.to_array (Mat.pairwise_sq_dist a b)))

(* Two identical networks on one batch: [backward] on one,
   [backward_params] on the other; every parameter gradient must agree. *)
let prop_backward_params =
  QCheck2.Test.make ~name:"backward_params = backward's parameter grads" ~count:100
    QCheck2.Gen.(
      quad (int_range 1 12) (int_range 1 9) (pair (int_range 1 9) (int_range 1 6)) (int_range 0 1000))
    (fun (in_dim, batch, (h1, h2), seed) ->
      let spec = [ `Dense h1; `Relu; `Dropout 0.2; `Dense h2; `Relu ] in
      let make () = Network.create (Rng.create seed) ~in_dim spec in
      let full = make () and params_only = make () in
      let rng = Rng.create (seed + 1) in
      let x = Mat.init batch in_dim (fun _ _ -> Rng.normal rng ()) in
      let dy = Mat.init batch h2 (fun _ _ -> Rng.normal rng ()) in
      ignore (Network.forward full (Rng.create (seed + 2)) x);
      ignore (Network.forward params_only (Rng.create (seed + 2)) x);
      ignore (Network.backward full dy);
      Network.backward_params params_only dy;
      List.for_all2
        (fun p q -> bits_equal (Mat.to_array p.Layer.grad) (Mat.to_array q.Layer.grad))
        (Network.params full) (Network.params params_only))

(* The sensitivity sweep as it was defined before batching: 2·rows scalar
   predicts per feature, quantiles via [Stat.quantile]. *)
let scalar_sensitivity dtm dataset =
  let rows = Dataset.rows dataset in
  let n = Array.length rows in
  if n = 0 then Array.make (Dtm.in_dim dtm) 0.
  else begin
    let sample = if n <= 48 then rows else Array.init 48 (fun i -> rows.(i * n / 48)) in
    Array.init (Dtm.in_dim dtm) (fun j ->
        let column = Array.map (fun r -> r.Dataset.features.(j)) rows in
        let lo = Stat.quantile column 0.1 in
        let hi = Stat.quantile column 0.9 in
        if hi -. lo < 1e-12 then 0.
        else begin
          let acc = ref 0. in
          Array.iter
            (fun r ->
              let v = Vec.copy r.Dataset.features in
              v.(j) <- hi;
              let up = (Dtm.predict dtm v).Dtm.performance in
              v.(j) <- lo;
              let down = (Dtm.predict dtm v).Dtm.performance in
              acc := !acc +. (up -. down))
            sample;
          !acc /. float_of_int (Array.length sample)
        end)
  end

let prop_feature_sensitivity =
  QCheck2.Test.make ~name:"feature_sensitivity bitwise equals the scalar-predict sweep"
    ~count:15
    QCheck2.Gen.(triple (int_range 2 7) (int_range 1 70) (int_range 0 1000))
    (fun (d, n, seed) ->
      let rng = Rng.create seed in
      let ds = Dataset.create () in
      for i = 1 to n do
        (* Feature 0 is constant (the degenerate-range branch). *)
        let x = Array.init d (fun j -> if j = 0 then 1. else Rng.float rng 10.) in
        Dataset.add ds x ~target:(x.(1) *. 2.) ~crashed:(i mod 6 = 0)
      done;
      let dtm =
        Dtm.create ~config:{ Dtm.default_config with hidden = [ 8; 5 ] } (Rng.create seed) ~in_dim:d
      in
      ignore (Dtm.train dtm ~epochs:2 ds);
      bits_equal (scalar_sensitivity dtm ds) (Dtm.feature_sensitivity dtm ds))

let value_gen =
  QCheck2.Gen.(
    let any_int = oneof [ int; int_range (-20) 20; oneofl [ min_int; max_int; 0; -1 ] ] in
    oneof
      [ map (fun b -> Param.Vbool b) bool;
        map (fun i -> Param.Vtristate i) any_int;
        map (fun i -> Param.Vint i) any_int;
        map (fun i -> Param.Vcat i) any_int ])

let prop_config_key =
  QCheck2.Test.make ~name:"config_key equals String.concat of value tokens" ~count:500
    QCheck2.Gen.(array_size (int_range 0 40) value_gen)
    (fun config ->
      String.equal (Param.config_key config)
        (String.concat "," (Array.to_list (Array.map Param.value_token config))))

let prop_dissimilarities =
  QCheck2.Test.make ~name:"dissimilarities bitwise equal per-candidate dissimilarity" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 9) (int_range 0 11) (int_range 1 7) >>= fun (n, k, d) ->
      pair
        (array_size (return n) (array_size (return d) float_gen))
        (list_size (return k) (array_size (return d) float_gen)))
    (fun (xs, known) ->
      bits_equal
        (Array.map (fun x -> Scoring.dissimilarity x known) xs)
        (Scoring.dissimilarities xs known))

let prop_column_stats =
  QCheck2.Test.make ~name:"column_zscore_params and quantile_sorted match the copying forms"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 1 6) (int_range 1 30) >>= fun (d, n) ->
      pair (int_range 0 (d - 1)) (array_size (return n) (array_size (return d) float_gen)))
    (fun (j, rows) ->
      let column = Array.map (fun r -> r.(j)) rows in
      let m, s = Stat.zscore_params column and m', s' = Stat.column_zscore_params rows j in
      let sorted = Array.copy column in
      Array.sort Float.compare sorted;
      bits_equal [| m; s |] [| m'; s' |]
      && List.for_all
           (fun q -> bits_equal [| Stat.quantile column q |] [| Stat.quantile_sorted sorted q |])
           [ 0.; 0.1; 0.5; 0.9; 1. ])

(* ------------------------------------------------------------------ *)
(* Gaussian-process posterior                                          *)
(* ------------------------------------------------------------------ *)

(* The kernel, Gram matrix, factorisation, substitutions and posterior as
   they were computed one query at a time, through [Mat.get]/[Mat.set]. *)
let ref_kernel k a b =
  match k with
  | Kernel.Squared_exponential { lengthscale; variance } ->
    let r2 = Vec.sq_dist a b in
    variance *. exp (-.r2 /. (2. *. lengthscale *. lengthscale))
  | Kernel.Matern52 { lengthscale; variance } ->
    let r = Vec.dist a b /. lengthscale in
    let c = sqrt 5. *. r in
    variance *. (1. +. c +. (5. *. r *. r /. 3.)) *. exp (-.c)

let ref_gram k rows =
  let n = Array.length rows in
  let out = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let v = ref_kernel k rows.(i) rows.(j) in
      Mat.set out i j v;
      Mat.set out j i v
    done
  done;
  out

let ref_cholesky a =
  let n = a.Mat.rows in
  let l = Mat.zeros n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      if i = j then begin
        if !acc <= 0. then failwith "Mat.cholesky: matrix not positive definite";
        Mat.set l i i (sqrt !acc)
      end
      else Mat.set l i j (!acc /. Mat.get l j j)
    done
  done;
  l

let ref_solve_lower l b =
  let n = l.Mat.rows in
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get l i j *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

let ref_solve_upper l b =
  let n = l.Mat.rows in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get l j i *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get l i i
  done;
  x

(* (means, variances, EIs) of the scalar formula at every query. *)
let ref_posterior k ~noise rows y ~best queries =
  let chol = ref_cholesky (Mat.add_jitter (ref_gram k rows) noise) in
  let alpha = ref_solve_upper chol (ref_solve_lower chol y) in
  let post q =
    let k_star = Array.map (fun row -> ref_kernel k row q) rows in
    let mean = Vec.dot k_star alpha in
    let v = ref_solve_lower chol k_star in
    let var = max 0. (ref_kernel k q q +. noise -. Vec.dot v v) in
    let sigma = sqrt var in
    let ei =
      if sigma < 1e-12 then 0.
      else begin
        let z = (mean -. best) /. sigma in
        ((mean -. best) *. Gp.std_normal_cdf z) +. (sigma *. Gp.std_normal_pdf z)
      end
    in
    (mean, var, ei)
  in
  let posts = Array.map post queries in
  ( Array.map (fun (m, _, _) -> m) posts,
    Array.map (fun (_, v, _) -> v) posts,
    Array.map (fun (_, _, e) -> e) posts )

let kernel_gen =
  QCheck2.Gen.(
    map3
      (fun se lengthscale variance ->
        if se then Kernel.Squared_exponential { lengthscale; variance }
        else Kernel.Matern52 { lengthscale; variance })
      bool (oneofl [ 0.3; 0.8; 1.5 ]) (oneofl [ 1.; 0.7; 0.3 ]))

(* n training rows in [0,1]^d, about a quarter of them copies of an
   earlier row, and m queries, half of them copies of a training row.
   Odd n and every m mod 4 exercise the distance and substitution
   blocking.  A noise of 1e-17 vanishes next to the diagonal, so a query
   on a training row can leave a variance of 0 (the clamp and EI's
   [sigma < 1e-12] branch), and a duplicated row a singular matrix. *)
type gp_case = {
  kernel : Kernel.t;
  noise : float;
  rows : Vec.t array;
  y : Vec.t;
  queries : Vec.t array;
  best : float;
}

let gp_case_gen =
  QCheck2.Gen.(
    quad kernel_gen (oneofl [ 1e-3; 1e-6; 1e-17 ]) (int_range 1 40)
      (pair (int_range 1 13) (int_range 1 6))
    >>= fun (kernel, noise, n, (m, d)) ->
    let row = array_size (return d) (float_range 0. 1.) in
    let one_in_four = frequency [ (1, return true); (3, return false) ] in
    let pick = triple one_in_four (int_range 0 (n - 1)) row in
    quad
      (array_size (return n) pick)
      (array_size (return n) (float_range (-2.) 2.))
      (array_size (return m) (triple bool (int_range 0 (n - 1)) row))
      (float_range (-1.) 1.)
    >|= fun (train, y, qs, best) ->
    let rows = Array.make n [||] in
    Array.iteri (fun i (dup, j, r) -> rows.(i) <- (if dup && j < i then rows.(j) else r)) train;
    let queries = Array.map (fun (dup, j, r) -> if dup then rows.(j) else r) qs in
    { kernel; noise; rows; y; queries; best })

let print_gp_case c =
  Printf.sprintf "%s noise=%g n=%d m=%d d=%d"
    (match c.kernel with Kernel.Squared_exponential _ -> "se" | Kernel.Matern52 _ -> "matern")
    c.noise (Array.length c.rows) (Array.length c.queries) (Array.length c.rows.(0))

(* A factorisation failure must be the reference's too. *)
let agree_or_both_fail reference actual check =
  match reference () with
  | exception Failure _ -> ( match actual () with exception Failure _ -> true | _ -> false)
  | expected -> check expected (actual ())

let prop_predict_batch =
  QCheck2.Test.make ~name:"predict_batch and EI bitwise equal the scalar posterior" ~count:300
    ~print:print_gp_case gp_case_gen (fun c ->
      agree_or_both_fail
        (fun () -> ref_posterior c.kernel ~noise:c.noise c.rows c.y ~best:c.best c.queries)
        (fun () -> Gp.fit ~noise:c.noise c.kernel (Mat.of_rows c.rows) c.y)
        (fun (means, vars, eis) gp ->
          let q = Mat.of_rows c.queries in
          let means', vars' = Gp.predict_batch gp q in
          let one = Array.map (Gp.predict gp) c.queries in
          bits_equal means means' && bits_equal vars vars'
          && bits_equal eis (Gp.expected_improvement_batch gp ~best:c.best q)
          && bits_equal means (Array.map fst one)
          && bits_equal vars (Array.map snd one)
          && bits_equal eis (Array.map (Gp.expected_improvement gp ~best:c.best) c.queries)))

let prop_factor_solve =
  QCheck2.Test.make ~name:"gram, cholesky, solves and inverse_spd bitwise equal get/set loops"
    ~count:300 ~print:print_gp_case gp_case_gen (fun c ->
      let x = Mat.of_rows c.rows in
      let gram = Kernel.gram c.kernel x in
      bits_equal (Mat.to_array (ref_gram c.kernel c.rows)) (Mat.to_array gram)
      &&
      let a = Mat.add_jitter gram c.noise in
      agree_or_both_fail
        (fun () -> ref_cholesky a)
        (fun () -> Mat.cholesky a)
        (fun l_ref l ->
          (* The targets and every query's k*: 2 to 14 right-hand sides. *)
          let rhs =
            Array.append [| c.y |]
              (Array.map (fun q -> Array.map (fun r -> ref_kernel c.kernel r q) c.rows) c.queries)
          in
          let n = l.Mat.rows and cols = Array.length rhs in
          let many = Mat.init n cols (fun i j -> rhs.(j).(i)) in
          Mat.solve_lower_in_place l many;
          let ref_inverse =
            let unit j = Array.init n (fun r -> if r = j then 1. else 0.) in
            Mat.init n n (fun i j -> (ref_solve_upper l_ref (ref_solve_lower l_ref (unit j))).(i))
          in
          bits_equal (Mat.to_array l_ref) (Mat.to_array l)
          && Array.for_all
               (fun r ->
                 bits_equal (ref_solve_lower l_ref r) (Mat.solve_lower l r)
                 && bits_equal (ref_solve_upper l_ref r) (Mat.solve_upper l r))
               rhs
          && bits_equal
               (Mat.to_array (Mat.init n cols (fun i j -> (ref_solve_lower l_ref rhs.(j)).(i))))
               (Mat.to_array many)
          && bits_equal (Mat.to_array ref_inverse) (Mat.to_array (Mat.inverse_spd a))))

(* One training point and a query on it.  With the noise lost in
   rounding, k(q,q) + noise − v·v is exactly 0 at variance 1 and −2⁻⁵³
   at variance 0.3, which the clamp turns into +0; EI then takes its
   degenerate branch. *)
let test_degenerate_posterior () =
  let x = [| [| 0.25; 0.5 |] |] and y = [| 1.5 |] and off = [| 0.; 1. |] in
  List.iter
    (fun variance ->
      let k = Kernel.Squared_exponential { lengthscale = 1.; variance } in
      let gp = Gp.fit ~noise:1e-17 k (Mat.of_rows x) y in
      let means, vars = Gp.predict_batch gp (Mat.of_rows [| x.(0); off |]) in
      let ref_means, ref_vars, _ = ref_posterior k ~noise:1e-17 x y ~best:0. x in
      let name what = Printf.sprintf "variance %g: %s" variance what in
      Alcotest.(check bool) (name "mean as the scalar formula") true
        (bits_equal ref_means [| means.(0) |]);
      Alcotest.(check bool) (name "variance +0") true
        (bits_equal [| 0.; 0. |] [| ref_vars.(0); vars.(0) |]);
      Alcotest.(check (float 0.)) (name "EI 0 on the training point") 0.
        (Gp.expected_improvement gp ~best:(-10.) x.(0));
      Alcotest.(check bool) (name "EI > 0 off it") true
        (Gp.expected_improvement gp ~best:(-10.) off > 0.))
    [ 1.; 0.3 ]

(* ------------------------------------------------------------------ *)
(* Allocation ratchet                                                  *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words are deterministic for a given build, so these bounds
   catch reintroduced per-element boxing.  Measured on the fixture below
   before the whole-matrix kernels (per-element Mat.get/set from other
   modules, map/init closures): one training epoch allocated 2_296_970
   minor words and one 96-row predict_batch 823_991.  The ratchet is half
   of each; the kernels brought them to roughly 3% and 0.4%. *)
let parent_train_words = 2_296_970.
let parent_predict_words = 823_991.

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_allocation_ratchet () =
  let in_dim = 211 in
  let rng = Rng.create 42 in
  let ds = Dataset.create () in
  for i = 0 to 99 do
    let x = Array.init in_dim (fun _ -> Rng.float rng 1.0) in
    Dataset.add ds x ~target:(x.(0) *. 3.) ~crashed:(i mod 7 = 0)
  done;
  let dtm = Dtm.create (Rng.create 7) ~in_dim in
  let rows = Array.map (fun r -> r.Dataset.features) (Array.sub (Dataset.rows ds) 0 96) in
  (* Warm up: the first calls size the normaliser and layer caches. *)
  ignore (Dtm.train dtm ~epochs:1 ds);
  ignore (Dtm.predict_batch dtm rows);
  let train = minor_words (fun () -> Dtm.train dtm ~epochs:1 ds) in
  let predict = minor_words (fun () -> Dtm.predict_batch dtm rows) in
  let within name words parent =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f minor words <= 50%% of %.0f" name words parent)
      true
      (words <= parent /. 2.)
  in
  within "train epoch" train parent_train_words;
  within "predict_batch 96" predict parent_predict_words

let () =
  at_exit (fun () -> if Lazy.is_val pool then Domain_pool.shutdown (Lazy.force pool));
  Alcotest.run "kernels"
    [ ( "bitwise",
        List.map QCheck_alcotest.to_alcotest
          [ prop_products; prop_products_1x1; prop_products_pooled; prop_pairwise_sq_dist;
            prop_backward_params; prop_feature_sensitivity; prop_config_key;
            prop_dissimilarities; prop_column_stats; prop_predict_batch; prop_factor_solve ] );
      ( "posterior",
        [ Alcotest.test_case "degenerate variance and EI" `Quick test_degenerate_posterior ] );
      ( "allocation",
        [ Alcotest.test_case "train and predict_batch ratchet" `Quick test_allocation_ratchet ] ) ]
