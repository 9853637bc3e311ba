(** Multi-metric candidate ranking (§3.2, last paragraph).

    "During the scoring phase, we apply equation 3 to each target metric to
    obtain individual scores.  Then, we calculate a representative score
    for each permutation sample by taking a weighted average."

    This module turns a {!Dtm_multi} prediction into that representative
    rank: per metric, the z-scored predicted performance plus the eq. 3
    exploration bonus, combined by normalised weights, minus the shared
    crash penalty. *)

module Space = Wayfinder_configspace.Space
module Encoding = Wayfinder_configspace.Encoding
module Rng = Wayfinder_tensor.Rng
module Vec = Wayfinder_tensor.Vec

type objective = { label : string; weight : float }

val rank :
  ?alpha:float ->
  ?exploration_weight:float ->
  ?crash_penalty:float ->
  objectives:objective list ->
  prediction:Dtm_multi.prediction ->
  dissimilarity:float ->
  unit ->
  float
(** Representative score of one candidate.  Weights are normalised to sum
    to 1.  @raise Invalid_argument if the objective count does not match
    the prediction's metric count or weights are all zero. *)

type proposer

val proposer :
  ?options:Deeptune.options ->
  ?seed:int ->
  objectives:objective list ->
  Space.t ->
  proposer
(** A standalone multi-metric search head: generate a candidate pool,
    rank it with {!rank} over a {!Dtm_multi}, and learn from observations.
    Unlike {!Deeptune} it is driven manually (the platform's history holds
    a single metric), so the caller owns the evaluate loop:

    {[
      let p = Multi_objective.proposer ~objectives space in
      for _ = 1 to budget do
        let config = Multi_objective.propose p in
        let targets = measure config in              (* one score per metric *)
        Multi_objective.observe p config targets
      done
    ]} *)

val propose : proposer -> Space.configuration

val observe : proposer -> Space.configuration -> (float array, string) result -> unit
(** [Ok targets] carries one higher-is-better score per objective;
    [Error kind] records a crash. *)

val model : proposer -> Dtm_multi.t
val best : proposer -> (Space.configuration * float array) option
(** Observation with the highest representative (weighted, normalised)
    score so far. *)

module Search_algorithm = Wayfinder_platform.Search_algorithm
module Objective = Wayfinder_platform.Objective

val algorithm :
  ?options:Deeptune.options ->
  ?seed:int ->
  objectives:objective list ->
  spec:Objective.spec ->
  Space.t ->
  Search_algorithm.t
(** The proposer wrapped as a platform searcher ("deeptune-multi"), for
    multi-objective targets driven by {!Wayfinder_platform.Driver}: each
    observed entry's raw objective vector is converted to per-metric
    higher-is-better scores ({!Objective.scores} under [spec]) and fed to
    {!observe}; failures train the crash head; successful entries without
    a vector are ignored.  @raise Invalid_argument if [objectives] and
    [spec] disagree on the metric count. *)

val of_proposer : proposer -> spec:Objective.spec -> Search_algorithm.t
(** {!algorithm} over an existing proposer, so the caller keeps a handle
    on its {!model}.  @raise Invalid_argument as {!algorithm}. *)
