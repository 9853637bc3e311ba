module Vec = Wayfinder_tensor.Vec

type feature = { owner : int; label : string }

type t = {
  space : Space.t;
  features : feature array;
  offsets : int array;
  log_lo : float array;  (* per parameter: [log10 (max 1 lo)] of a log-scale Kint *)
  log_span : float array;  (* ... and [log10 (max 1 hi) - log_lo] *)
}

let log_bound v = log10 (float_of_int (max 1 v))

let features_of_param i (p : Param.t) =
  match p.Param.kind with
  | Param.Kbool | Param.Ktristate | Param.Kint _ -> [ { owner = i; label = p.Param.name } ]
  | Param.Kcategorical choices ->
    Array.to_list
      (Array.map (fun c -> { owner = i; label = Printf.sprintf "%s=%s" p.Param.name c }) choices)

let create space =
  let params = Space.params space in
  let features =
    Array.to_list params
    |> List.mapi features_of_param
    |> List.concat
    |> Array.of_list
  in
  (* offsets.(i) = first feature index of parameter i *)
  let offsets = Array.make (Array.length params) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i p ->
      offsets.(i) <- !pos;
      pos :=
        !pos
        + (match p.Param.kind with
          | Param.Kbool | Param.Ktristate | Param.Kint _ -> 1
          | Param.Kcategorical choices -> Array.length choices))
    params;
  let log_lo = Array.make (Array.length params) 0. in
  let log_span = Array.make (Array.length params) 0. in
  Array.iteri
    (fun i p ->
      match p.Param.kind with
      | Param.Kint { lo; hi; log_scale = true } when lo >= 0 ->
        log_lo.(i) <- log_bound lo;
        log_span.(i) <- log_bound hi -. log_lo.(i)
      | Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _ -> ())
    params;
  { space; features; offsets; log_lo; log_span }

let space t = t.space
let dim t = Array.length t.features

let encode_value t i (p : Param.t) v out pos =
  match (p.Param.kind, v) with
  | Param.Kbool, Param.Vbool b -> out.(pos) <- (if b then 1. else 0.)
  | Param.Ktristate, Param.Vtristate x -> out.(pos) <- float_of_int x /. 2.
  | Param.Kint { lo; hi; log_scale }, Param.Vint v ->
    let scaled =
      if hi = lo then 0.5
      else if log_scale && lo >= 0 then begin
        let denom = t.log_span.(i) in
        if denom <= 0. then 0.5 else (log_bound v -. t.log_lo.(i)) /. denom
      end
      else float_of_int (v - lo) /. float_of_int (hi - lo)
    in
    out.(pos) <- scaled
  | Param.Kcategorical choices, Param.Vcat c ->
    for k = 0 to Array.length choices - 1 do
      out.(pos + k) <- (if k = c then 1. else 0.)
    done
  | (Param.Kbool | Param.Ktristate | Param.Kint _ | Param.Kcategorical _), _ ->
    invalid_arg (Printf.sprintf "Encoding.encode: kind mismatch for %s" p.Param.name)

let encode_into t config out =
  if Array.length config <> Space.size t.space then
    invalid_arg "Encoding.encode: configuration size mismatch";
  if Array.length out <> dim t then invalid_arg "Encoding.encode_into: output size mismatch";
  Array.iteri (fun i v -> encode_value t i (Space.param t.space i) v out t.offsets.(i)) config

let encode t config =
  let out = Vec.zeros (dim t) in
  encode_into t config out;
  out

let feature_names t = Array.map (fun f -> f.label) t.features

let param_importance t scores =
  if Array.length scores <> dim t then
    invalid_arg "Encoding.param_importance: score length mismatch";
  let n = Space.size t.space in
  let acc = Array.make n 0. in
  Array.iteri (fun j f -> acc.(f.owner) <- acc.(f.owner) +. scores.(j)) t.features;
  let named = Array.mapi (fun i s -> ((Space.param t.space i).Param.name, s)) acc in
  Array.sort (fun (_, a) (_, b) -> compare b a) named;
  named

let distance t a b = Vec.dist (encode t a) (encode t b)
