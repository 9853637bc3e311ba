module Mat = Wayfinder_tensor.Mat
module Rng = Wayfinder_tensor.Rng

type tensor = { value : Mat.t; grad : Mat.t }

let tensor_zeros rows cols = { value = Mat.zeros rows cols; grad = Mat.zeros rows cols }

let zero_grad t = Mat.fill t.grad 0.

module Dense = struct
  type t = {
    w : tensor;  (* in_dim × out_dim *)
    b : tensor;  (* 1 × out_dim *)
    mutable last_input : Mat.t option;
  }

  let create rng ~in_dim ~out_dim =
    let scale = sqrt (2. /. float_of_int in_dim) in
    let w = tensor_zeros in_dim out_dim in
    for i = 0 to Mat.numel w.value - 1 do
      Mat.set_flat w.value i (Rng.normal rng ~sigma:scale ())
    done;
    { w; b = tensor_zeros 1 out_dim; last_input = None }

  let in_dim t = t.w.value.Mat.rows
  let out_dim t = t.w.value.Mat.cols

  let forward t x =
    t.last_input <- Some x;
    let y = Mat.matmul x t.w.value in
    Mat.add_row_into ~dst:y t.b.value;
    y

  let backward_params t dy =
    let x =
      match t.last_input with
      | Some x -> x
      | None -> invalid_arg "Dense.backward: no forward pass recorded"
    in
    (* dW += xᵀ · dy ; db += column sums of dy *)
    Mat.add_into ~dst:t.w.grad (Mat.matmul_tn x dy);
    Mat.add_col_sums_into ~dst:t.b.grad dy

  let backward t dy =
    backward_params t dy;
    (* dX = dy · Wᵀ *)
    Mat.matmul_nt dy t.w.value

  let params t = [ t.w; t.b ]

  let copy t =
    { w = { value = Mat.copy t.w.value; grad = Mat.zeros t.w.value.Mat.rows t.w.value.Mat.cols };
      b = { value = Mat.copy t.b.value; grad = Mat.zeros 1 t.b.value.Mat.cols };
      last_input = None }

  let weights t = t.w.value
end

module Relu = struct
  type t = { mutable last_input : Mat.t option }

  let create () = { last_input = None }

  let forward t x =
    t.last_input <- Some x;
    Mat.relu x

  let backward t dy =
    match t.last_input with
    | None -> invalid_arg "Relu.backward: no forward pass recorded"
    | Some x -> Mat.relu_backward x dy
end

module Dropout = struct
  type t = { rate : float; mutable mask : Mat.t option }

  let create ~rate =
    if rate < 0. || rate >= 1. then invalid_arg "Dropout.create: rate must be in [0, 1)";
    { rate; mask = None }

  let rate t = t.rate

  let forward t ?(train = true) rng x =
    if (not train) || t.rate = 0. then begin
      t.mask <- None;
      x
    end
    else begin
      let mask = Mat.dropout_mask rng ~keep:(1. -. t.rate) x.Mat.rows x.Mat.cols in
      t.mask <- Some mask;
      Mat.hadamard x mask
    end

  let backward t dy =
    match t.mask with None -> dy | Some mask -> Mat.hadamard dy mask
end

module Rbf = struct
  type t = {
    c : tensor;  (* centroids × in_dim *)
    gamma : float;
    mutable last_input : Mat.t option;
    mutable last_output : Mat.t option;
  }

  let create rng ~in_dim ~centroids ~gamma =
    let c = tensor_zeros centroids in_dim in
    (* Centroids start near the origin of the z-scored feature space. *)
    for i = 0 to Mat.numel c.value - 1 do
      Mat.set_flat c.value i (Rng.normal rng ~sigma:0.5 ())
    done;
    { c; gamma; last_input = None; last_output = None }

  let centroid_count t = t.c.value.Mat.rows
  let centroid_matrix t = t.c.value

  let forward t z =
    let m = centroid_count t in
    let d = t.c.value.Mat.cols in
    if z.Mat.cols <> d then invalid_arg "Rbf.forward: input dimension mismatch";
    let denom = 2. *. t.gamma *. t.gamma in
    (* φ(i,k) = exp(−‖z_i − c_k‖² / 2γ²), overwriting the distances. *)
    let phi = Mat.pairwise_sq_dist z t.c.value in
    let pd = phi.Mat.data in
    for i = 0 to (z.Mat.rows * m) - 1 do
      pd.{i} <- exp (-. pd.{i} /. denom)
    done;
    t.last_input <- Some z;
    t.last_output <- Some phi;
    phi

  let backward t dphi =
    let z, phi =
      match (t.last_input, t.last_output) with
      | Some z, Some phi -> (z, phi)
      | _, _ -> invalid_arg "Rbf.backward: no forward pass recorded"
    in
    let m = centroid_count t in
    let d = t.c.value.Mat.cols in
    let inv_gamma2 = 1. /. (t.gamma *. t.gamma) in
    let dz = Mat.zeros z.Mat.rows d in
    (* dφ/dc_k = φ · (z - c_k)/γ² ; dφ/dz = -φ · (z - c_k)/γ² *)
    for i = 0 to z.Mat.rows - 1 do
      for k = 0 to m - 1 do
        let coeff = Mat.get dphi i k *. Mat.get phi i k *. inv_gamma2 in
        if coeff <> 0. then
          for j = 0 to d - 1 do
            let delta = Mat.get z i j -. Mat.get t.c.value k j in
            Mat.set t.c.grad k j (Mat.get t.c.grad k j +. (coeff *. delta));
            Mat.set dz i j (Mat.get dz i j -. (coeff *. delta))
          done
      done
    done;
    dz

  let params t = [ t.c ]

  let copy t =
    { c = { value = Mat.copy t.c.value; grad = Mat.zeros t.c.value.Mat.rows t.c.value.Mat.cols };
      gamma = t.gamma;
      last_input = None;
      last_output = None }
end
