module Param = Wayfinder_configspace.Param
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Pareto = Wayfinder_platform.Pareto
module Stat = Wayfinder_tensor.Stat
module A = Wayfinder_analytics

(* The streaming twin of {!A.Series}: every statistic the batch code
   derives by scanning the whole row array is maintained here in O(1)
   (amortised) per record, and the conformance property pins each one
   bitwise to the batch rebuild at every prefix.  Where parity is
   non-trivial the batch loop is transcribed, not approximated — e.g. the
   windowed rates keep the same integer in-window counter the batch code
   sweeps, and the regret slope replays the exact least-squares loop over
   a ring of running-best values with their absolute indices. *)

let default_window = A.Progress.default_window

(* Same predicates as Series.is_crash / is_transient (not exported). *)
let is_crash (r : A.Series.row) =
  match r.failure with Some f -> Failure.counts_as_crash f | None -> false

let is_transient (r : A.Series.row) =
  match r.failure with
  | Some f -> (
    match Failure.klass f with
    | Failure.Transient | Failure.Timeout -> true
    | Failure.Deterministic -> false)
  | None -> false

let dummy_row : A.Series.row =
  { index = -1; tokens = [||]; value = None; failure = None; at_seconds = 0.;
    eval_seconds = 0.; built = false; decide_seconds = 0.; belief = None;
    objectives = None }

type t = {
  metric : Metric.t;
  names : string array;
  stages : Param.stage array;
  objectives : Metric.t array;
  win : int;
  (* Full row history (tail_series / series need the rows themselves;
     everything below is derived).  Doubling array, never shrunk. *)
  mutable buf : A.Series.row array;
  mutable n : int;
  mutable best : (int * float) option;
  mutable crashes : int;
  mutable transients : int;
  (* Ring slot [i mod win] holds the predicate of row i for the last
     [win] rows — the exact counter dance of Series.windowed_rate. *)
  crash_ring : bool array;
  transient_ring : bool array;
  mutable crash_in_window : int;
  mutable transient_in_window : int;
  (* Ring of best-so-far raw values (NaN before the first success),
     aligned the same way — the slope's input. *)
  bsf_ring : float array;
  mutable bsf : float;
  configs : (string, unit) Hashtbl.t;
  stage_keys : (string, unit) Hashtbl.t;
  mutable front : Pareto.t option;
  mutable total_eval : float;
  mutable last_at : float;
  mutable last_improvement : int;
}

let create ?(window = default_window) ~metric ~names ~stages ~objectives () =
  if window <= 0 then invalid_arg "Live_series.create: window must be positive";
  { metric; names; stages; objectives; win = window;
    buf = Array.make 64 dummy_row; n = 0; best = None; crashes = 0;
    transients = 0; crash_ring = Array.make window false;
    transient_ring = Array.make window false; crash_in_window = 0;
    transient_in_window = 0; bsf_ring = Array.make window nan; bsf = nan;
    configs = Hashtbl.create 64; stage_keys = Hashtbl.create 64;
    front = (if Array.length objectives = 0 then None
             else Some (Pareto.create ~spec:objectives));
    total_eval = 0.; last_at = 0.; last_improvement = 0 }

let of_meta ?window (m : A.Ledger.meta) =
  let params = Array.of_list m.A.Ledger.params in
  create ?window ~metric:m.A.Ledger.metric ~names:(Array.map fst params)
    ~stages:(Array.map snd params)
    ~objectives:(Array.of_list m.A.Ledger.objectives) ()

let length t = t.n
let window t = t.win
let metric t = t.metric
let last_improvement t = t.last_improvement

(* Same projection as Series.stage_key_of. *)
let stage_key_of t (r : A.Series.row) =
  let buf = Buffer.create 32 in
  Array.iteri
    (fun i tok ->
      if i < Array.length t.stages && t.stages.(i) <> Param.Runtime then begin
        Buffer.add_string buf tok;
        Buffer.add_char buf ';'
      end)
    r.tokens;
  Buffer.contents buf

let observe t (r : A.Series.row) =
  if t.n = Array.length t.buf then begin
    let bigger = Array.make (2 * t.n) dummy_row in
    Array.blit t.buf 0 bigger 0 t.n;
    t.buf <- bigger
  end;
  t.buf.(t.n) <- r;
  let i = t.n in
  (* Running best — same comparison chain as Series.best/best_so_far. *)
  (match r.value with
  | None -> ()
  | Some v ->
    let improved =
      match t.best with
      | None -> true
      | Some (_, bv) -> Metric.better t.metric v bv
    in
    if improved then begin
      t.best <- Some (r.index, v);
      t.bsf <- v;
      t.last_improvement <- i + 1
    end);
  (* Windowed rates: slot [i mod win] held the predicate of row
     [i - win]; retire it exactly when the batch sweep would. *)
  let slot = i mod t.win in
  if i >= t.win then begin
    if t.crash_ring.(slot) then t.crash_in_window <- t.crash_in_window - 1;
    if t.transient_ring.(slot) then
      t.transient_in_window <- t.transient_in_window - 1
  end;
  let c = is_crash r and tr = is_transient r in
  t.crash_ring.(slot) <- c;
  t.transient_ring.(slot) <- tr;
  if c then begin
    t.crashes <- t.crashes + 1;
    t.crash_in_window <- t.crash_in_window + 1
  end;
  if tr then begin
    t.transients <- t.transients + 1;
    t.transient_in_window <- t.transient_in_window + 1
  end;
  t.bsf_ring.(slot) <- t.bsf;
  Hashtbl.replace t.configs (String.concat ";" (Array.to_list r.tokens)) ();
  Hashtbl.replace t.stage_keys (stage_key_of t r) ();
  (match t.front with
  | None -> ()
  | Some front -> (
    match r.objectives with
    | Some v when r.failure = None && Array.length v = Array.length t.objectives
      ->
      t.front <- Some (Pareto.insert front ~index:r.index ~objectives:v)
    | Some _ | None -> ()));
  t.total_eval <- t.total_eval +. r.eval_seconds;
  t.last_at <- r.at_seconds;
  t.n <- i + 1

(* The exact least-squares loop of Series.regret_slope, replayed over the
   ring: same absolute x positions, same Stat.mean, same accumulation
   order — bitwise-identical output. *)
let regret_slope t =
  let lo = max 0 (t.n - t.win) in
  let xs = ref [] and ys = ref [] in
  for i = lo to t.n - 1 do
    let v = t.bsf_ring.(i mod t.win) in
    if not (Float.is_nan v) then begin
      xs := float_of_int i :: !xs;
      ys := Metric.score t.metric v :: !ys
    end
  done;
  let xs = Array.of_list (List.rev !xs) and ys = Array.of_list (List.rev !ys) in
  let k = Array.length xs in
  if k < 2 then 0.
  else begin
    let mx = Stat.mean xs and my = Stat.mean ys in
    let num = ref 0. and den = ref 0. in
    for i = 0 to k - 1 do
      num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
      den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
    done;
    if !den = 0. then 0. else !num /. !den
  end

type stats = {
  length : int;
  best : (int * float) option;
  best_so_far : float;
  regret_slope : float;
  crash_rate : float;
  transient_rate : float;
  windowed_crash_rate : float;
  windowed_transient_rate : float;
  evaluated : int;
  distinct_configs : int;
  distinct_stage_keys : int;
  pareto_size : int option;
  hypervolume_proxy : float option;
  virtual_seconds : float;
  total_eval_seconds : float;
}

let stats t =
  let denom = float_of_int (min t.n t.win) in
  { length = t.n;
    best = t.best;
    best_so_far = t.bsf;
    regret_slope = regret_slope t;
    crash_rate =
      (if t.n = 0 then 0. else float_of_int t.crashes /. float_of_int t.n);
    transient_rate =
      (if t.n = 0 then 0. else float_of_int t.transients /. float_of_int t.n);
    windowed_crash_rate =
      (if t.n = 0 then 0. else float_of_int t.crash_in_window /. denom);
    windowed_transient_rate =
      (if t.n = 0 then 0. else float_of_int t.transient_in_window /. denom);
    evaluated = t.n;
    distinct_configs = (if t.n = 0 then 0 else Hashtbl.length t.configs);
    distinct_stage_keys = (if t.n = 0 then 0 else Hashtbl.length t.stage_keys);
    pareto_size = Option.map Pareto.size t.front;
    hypervolume_proxy = Option.map Pareto.hypervolume_proxy t.front;
    virtual_seconds = t.last_at;
    total_eval_seconds = t.total_eval }

(* The batch oracle: the same stats computed only through Series — what
   the conformance property compares against at every prefix. *)
let stats_of_series ?(window = default_window) (s : A.Series.t) =
  let n = A.Series.length s in
  let last arr = if n = 0 then 0. else arr.(n - 1) in
  let bsf = A.Series.best_so_far s in
  let cov = A.Series.coverage s in
  { length = n;
    best = A.Series.best s;
    best_so_far = (if n = 0 then nan else bsf.(n - 1));
    regret_slope = A.Series.regret_slope s ~window;
    crash_rate = A.Series.crash_rate s;
    transient_rate = A.Series.transient_rate s;
    windowed_crash_rate = last (A.Series.windowed_crash_rate s ~window);
    windowed_transient_rate = last (A.Series.windowed_transient_rate s ~window);
    evaluated = cov.A.Series.evaluated;
    distinct_configs = cov.A.Series.distinct_configs;
    distinct_stage_keys = cov.A.Series.distinct_stage_keys;
    pareto_size = Option.map Pareto.size (A.Series.pareto s);
    hypervolume_proxy = A.Series.hypervolume_proxy s;
    virtual_seconds = A.Series.last_at_seconds s;
    total_eval_seconds = A.Series.total_eval_seconds s }

let series t =
  { A.Series.metric = t.metric; names = t.names; stages = t.stages;
    rows = Array.sub t.buf 0 t.n; objectives = t.objectives }

let tail_series t ~window =
  if window <= 0 then invalid_arg "Live_series.tail_series: window must be positive";
  let k = min t.n window in
  { A.Series.metric = t.metric; names = t.names; stages = t.stages;
    rows = Array.sub t.buf (t.n - k) k; objectives = t.objectives }

let pareto t = t.front

let progress ?metrics ?workers t =
  A.Progress.with_metrics ?metrics ?workers
    { A.Progress.iteration = t.n;
      best = Option.map snd t.best;
      regret_slope = regret_slope t;
      crash_rate =
        (if t.n = 0 then 0. else float_of_int t.crashes /. float_of_int t.n);
      cache_hit_rate = None;
      worker_busy = None;
      virtual_seconds = t.last_at }
