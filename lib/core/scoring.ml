module Vec = Wayfinder_tensor.Vec
module Mat = Wayfinder_tensor.Mat

let dissimilarity x known =
  match known with
  | [] -> 1.
  | _ :: _ ->
    let nearest =
      List.fold_left (fun acc k -> Stdlib.min acc (Vec.sq_dist x k)) infinity known
    in
    1. -. (1. /. (1. +. nearest))

let dissimilarities xs known =
  match known with
  | [] -> Array.make (Array.length xs) 1.
  | _ :: _ when Array.length xs = 0 -> [||]
  | _ :: _ ->
    (* One candidates × known distance matrix, columns in list order; each
       row is then folded exactly as [dissimilarity] folds the list. *)
    let dist = Mat.pairwise_sq_dist (Mat.of_rows xs) (Mat.of_rows (Array.of_list known)) in
    let m = dist.Mat.cols and dd = dist.Mat.data in
    Array.init (Array.length xs) (fun i ->
        let nearest = ref infinity in
        for k = 0 to m - 1 do
          (* [Stdlib.min !nearest d], NaN behaviour included *)
          let d = dd.{(i * m) + k} in
          if not (!nearest <= d) then nearest := d
        done;
        1. -. (1. /. (1. +. !nearest)))

let score ?(alpha = 0.5) ~dissimilarity ~uncertainty () =
  if alpha < 0. || alpha > 1. then invalid_arg "Scoring.score: alpha outside [0, 1]";
  (alpha *. dissimilarity) +. ((1. -. alpha) *. uncertainty)
