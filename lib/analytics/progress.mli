(** The [--progress N] one-line live snapshot.

    The line projects four run statistics (best value, trailing-window
    regret slope, crash rate, virtual time) and two observability
    aggregates (image-cache hit rate, mean worker busyness).  [run]
    takes the statistics from its streaming
    {!Wayfinder_monitor.Live_series} in O(1) per record; {!of_series}
    computes them from a batch {!Series} and is the reference the live
    path is tested against.  Both fill the two aggregates through
    {!with_metrics}. *)

module Metric = Wayfinder_platform.Metric
module Obs = Wayfinder_obs

type snapshot = {
  iteration : int;
  best : float option;
  regret_slope : float;  (** Score units per sample, trailing window. *)
  crash_rate : float;
  cache_hit_rate : float option;
      (** [hits / (hits + misses)] of the shared image cache; [None]
          before the first lookup or without metrics. *)
  worker_busy : float option;
      (** Mean busy fraction of the worker pool; [None] unless
          [workers > 1] and the histogram has samples. *)
  virtual_seconds : float;
}

val default_window : int
(** 25 — trailing window for the slope. *)

val with_metrics :
  ?metrics:Obs.Metrics.snapshot -> ?workers:int -> snapshot -> snapshot
(** [snap] with [cache_hit_rate] and [worker_busy] derived from a
    recorder's [metrics]: the driver's [driver.image_cache.hits]/[misses]
    counters, and the mean of its [driver.worker.busy] histogram divided
    by [workers].  The one place both rates are computed.  Without
    [metrics], [snap] unchanged. *)

val of_series :
  ?window:int -> ?metrics:Obs.Metrics.snapshot -> ?workers:int -> Series.t -> snapshot
(** The snapshot of a batch series over [window] (default
    {!default_window}); without [metrics], both aggregates are [None]. *)

val to_line : ?alerts:string list -> metric:Metric.t -> snapshot -> string
(** e.g. [[iter 120] best 812.300 req/s | slope +0.42/it | crash 18% |
    cache 37% | busy 86% | vt 3.4h].  [alerts] (default none) appends the
    active alert-rule names: [... | ALERT crash,stall]. *)
