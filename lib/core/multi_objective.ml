module Space = Wayfinder_configspace.Space
module Encoding = Wayfinder_configspace.Encoding
module Rng = Wayfinder_tensor.Rng
module Vec = Wayfinder_tensor.Vec
module Stat = Wayfinder_tensor.Stat
module Random_search = Wayfinder_platform.Random_search

type objective = { label : string; weight : float }

let normalised_weights objectives =
  let total = List.fold_left (fun acc o -> acc +. o.weight) 0. objectives in
  if total <= 0. then invalid_arg "Multi_objective: weights must sum to a positive value";
  List.map (fun o -> o.weight /. total) objectives

let rank ?(alpha = 0.5) ?(exploration_weight = 1.0) ?(crash_penalty = 3.0) ~objectives
    ~(prediction : Dtm_multi.prediction) ~dissimilarity () =
  let weights = Array.of_list (normalised_weights objectives) in
  if Array.length weights <> Array.length prediction.Dtm_multi.normalized_performances then
    invalid_arg "Multi_objective.rank: objective/prediction count mismatch";
  let bonus =
    Scoring.score ~alpha ~dissimilarity ~uncertainty:prediction.Dtm_multi.uncertainty ()
  in
  (* Eq. 3 per metric, then the weighted average of the per-metric ranks
     (performance term differs per metric; the exploration bonus is shared
     because novelty is a property of the configuration). *)
  let per_metric =
    Array.map
      (fun mu -> mu +. (exploration_weight *. bonus))
      prediction.Dtm_multi.normalized_performances
  in
  let aggregate = ref 0. in
  Array.iteri (fun k r -> aggregate := !aggregate +. (weights.(k) *. r)) per_metric;
  !aggregate -. (crash_penalty *. prediction.Dtm_multi.crash_probability)

type proposer = {
  options : Deeptune.options;
  objectives : objective list;
  space : Space.t;
  encoding : Encoding.t;
  model : Dtm_multi.t;
  rng : Rng.t;
  mutable known : Vec.t list;
  mutable best_configs : (float * Space.configuration * float array) list;  (* descending *)
  mutable observed : int;
  t_lo : float array;  (* running per-metric bounds for min-max scoring *)
  t_hi : float array;
}

let proposer ?(options = Deeptune.default_options) ?(seed = 0) ~objectives space =
  let n_metrics = List.length objectives in
  if n_metrics < 1 then invalid_arg "Multi_objective.proposer: no objectives";
  ignore (normalised_weights objectives);
  let rng = Rng.create (seed + 31337) in
  let encoding = Encoding.create space in
  { options;
    objectives;
    space;
    encoding;
    model =
      Dtm_multi.create ~config:options.Deeptune.dtm_config (Rng.split rng)
        ~in_dim:(Encoding.dim encoding) ~n_metrics;
    rng;
    known = [];
    best_configs = [];
    observed = 0;
    t_lo = Array.make n_metrics infinity;
    t_hi = Array.make n_metrics neg_infinity }

let model t = t.model

let fresh t =
  Random_search.sampler ?favor:t.options.Deeptune.favor
    ~strong:t.options.Deeptune.favor_strong ~weak:t.options.Deeptune.favor_weak t.space t.rng

let generate_pool t =
  List.init t.options.Deeptune.pool_size (fun k ->
      match t.best_configs with
      | (_, best, _) :: rest when k land 1 = 1 ->
        let partner = match rest with (_, second, _) :: _ -> second | [] -> best in
        if k land 2 = 2 then Space.mutate t.space t.rng best ~count:2
        else Space.crossover t.space t.rng best partner
      | _ :: _ | [] -> fresh t)

let propose t =
  if t.observed < t.options.Deeptune.warmup then fresh t
  else begin
    let pool = generate_pool t in
    let xs = Array.of_list (List.map (Encoding.encode t.encoding) pool) in
    let dss = Scoring.dissimilarities xs t.known in
    let scored =
      List.mapi
        (fun i config ->
          let p = Dtm_multi.predict t.model xs.(i) in
          let r =
            rank ~alpha:t.options.Deeptune.alpha
              ~exploration_weight:t.options.Deeptune.exploration_weight
              ~crash_penalty:t.options.Deeptune.crash_penalty ~objectives:t.objectives
              ~prediction:p ~dissimilarity:dss.(i) ()
          in
          (config, p, r))
        pool
    in
    let admissible =
      match t.options.Deeptune.crash_gate with
      | None -> scored
      | Some gate ->
        (match
           List.filter (fun (_, p, _) -> p.Dtm_multi.crash_probability <= gate) scored
         with
        | [] -> scored
        | ok -> ok)
    in
    match
      List.fold_left
        (fun acc ((_, _, r) as item) ->
          match acc with
          | Some (_, _, best_r) when best_r >= r -> acc
          | Some _ | None -> Some item)
        None admissible
    with
    | Some (config, _, _) -> config
    | None -> fresh t
  end

(* Representative observed score: weighted sum of per-metric min-max
   normalised values over the observations so far (targets live on wildly
   different scales). *)
let representative t targets =
  Array.iteri
    (fun k v ->
      t.t_lo.(k) <- Stdlib.min t.t_lo.(k) v;
      t.t_hi.(k) <- Stdlib.max t.t_hi.(k) v)
    targets;
  let weights = Array.of_list (normalised_weights t.objectives) in
  let acc = ref 0. in
  Array.iteri
    (fun k w ->
      acc := !acc +. (w *. Stat.min_max_norm ~lo:t.t_lo.(k) ~hi:t.t_hi.(k) targets.(k)))
    weights;
  !acc

let keep_best = 4

let observe t config result =
  t.observed <- t.observed + 1;
  let x = Encoding.encode t.encoding config in
  t.known <- x :: t.known;
  (match result with
  | Ok targets ->
    Dtm_multi.add t.model { Dtm_multi.features = x; targets; crashed = false };
    let score = representative t targets in
    (* Bounds may have moved: re-score the incumbents before re-ranking. *)
    let rescored =
      List.map (fun (_, c, ts) -> (representative t ts, c, ts)) t.best_configs
    in
    t.best_configs <-
      (score, config, targets) :: rescored
      |> List.sort (fun (a, _, _) (b, _, _) -> compare b a)
      |> List.filteri (fun i _ -> i < keep_best)
  | Error _ ->
    Dtm_multi.add t.model
      { Dtm_multi.features = x;
        targets = Array.make (Dtm_multi.n_metrics t.model) 0.;
        crashed = true });
  if Dtm_multi.observations t.model >= 4 then
    Dtm_multi.train t.model ~epochs:t.options.Deeptune.train_epochs ()

let best t =
  match t.best_configs with
  | (_, config, targets) :: _ -> Some (config, targets)
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Platform adapter                                                    *)
(* ------------------------------------------------------------------ *)

module Search_algorithm = Wayfinder_platform.Search_algorithm
module History = Wayfinder_platform.History
module Failure = Wayfinder_platform.Failure
module Objective = Wayfinder_platform.Objective

let of_proposer p ~spec =
  let n = Array.length spec in
  if List.length p.objectives <> n then
    invalid_arg "Multi_objective.algorithm: objective/spec count mismatch";
  Search_algorithm.make ~name:"deeptune-multi"
    ~propose:(fun _ctx -> propose p)
    ~observe:(fun _ctx (e : History.entry) ->
      match (e.History.failure, e.History.objectives) with
      | Some f, _ -> observe p e.History.config (Error (Failure.to_string f))
      | None, Some vec when Array.length vec = n ->
        (* Scores, not raw values: the model wants every target
           higher-is-better regardless of the objective's direction. *)
        observe p e.History.config (Ok (Objective.scores spec vec))
      | None, (Some _ | None) ->
        (* A successful evaluation without a vector (scalar target):
           nothing to learn from at the multi-metric head. *)
        ())
    ()

let algorithm ?options ?seed ~objectives ~spec space =
  of_proposer (proposer ?options ?seed ~objectives space) ~spec
