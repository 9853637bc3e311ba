(* Traced in-process replay of a benchmark workload.

   Runs the same steps the untraced benchmark drives through the
   `wayfinder run` CLI, but in one process and through the libraries'
   public entry points, timing every call into a layer from outside:

   - the searcher's [propose] / [propose_batch] / [observe] / [predict]
     record fields (layer "core" for DeepTune, "gp" for Bayesian
     optimisation, "search" for anything else);
   - [Target.evaluate] (layer "simos");
   - inside the [on_record] callback, exactly the calls the CLI makes
     there: [Ledger.record], [Live_series.observe], [Rules.evaluate],
     [Prom.render] + [Durable.atomic_write], [Series.of_history] +
     [Progress.of_series];
   - after the run, [Deeptune.parameter_impacts] and the read path
     ([Ledger.load], [Analyze], [Compare], [Tail] + [Dashboard], [Fsck]).

   Every span records its wall interval, parent, iteration id and the
   GC word deltas across the call.  Spans stay in memory and are written
   at exit in the obs JSONL trace schema, so [wayfinder profile] folds
   them into self-time tables.  The last line of stdout is one JSON
   object of per-layer metrics.

   Usage:
     tracer.exe --spans FILE STEP [:: STEP]...
   where each STEP is the argument list of one `wayfinder run` command
   (the subset of flags the workloads use), and the cwd is the step's
   working directory. *)

module S = Wayfinder_simos
module P = Wayfinder_platform
module D = Wayfinder_deeptune
module CS = Wayfinder_configspace
module A = Wayfinder_analytics
module M = Wayfinder_monitor
module Obs = Wayfinder_obs

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("tracer: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  iter : int;  (** Iteration (or trial) id; -1 when none applies. *)
  start : float;
  stop : float;
  minor_words : float;
  major_words : float;
}

let t0 = Unix.gettimeofday ()
let finished = ref []  (* end order, newest first *)
let open_stack = ref []
let next_id = ref 0

let span ?(iter = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let minor0, _, major0 = Gc.counters () in
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let minor1, _, major1 = Gc.counters () in
      open_stack := List.tl !open_stack;
      finished :=
        { id; name; parent; iter; start; stop; minor_words = minor1 -. minor0;
          major_words = major1 -. major0 }
        :: !finished)

let duration s = s.stop -. s.start

let write_spans path =
  let spans = List.rev !finished in
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) spans;
  Out_channel.with_open_text path (fun oc ->
      let sink = Obs.Sink.jsonl_channel oc in
      List.iter
        (fun s ->
          let parent =
            match Hashtbl.find_opt names s.parent with Some n -> n | None -> ""
          in
          Obs.Sink.emit sink
            (Obs.Event.Span
               { name = s.name;
                 attrs =
                   [ Obs.Attr.int "id" s.id; Obs.Attr.int "parent_id" s.parent;
                     Obs.Attr.string "parent" parent; Obs.Attr.int "iter" s.iter;
                     Obs.Attr.float "minor_words" s.minor_words;
                     Obs.Attr.float "major_words" s.major_words ];
                 began = { Obs.Event.wall_s = s.start -. t0; virtual_s = 0. };
                 wall_duration_s = duration s;
                 virtual_duration_s = 0. }))
        spans;
      Obs.Sink.flush sink)

(* ------------------------------------------------------------------ *)
(* Steps: the `wayfinder run` flags the workloads use                   *)
(* ------------------------------------------------------------------ *)

type step = {
  app : string;
  algorithm : string;
  iterations : int;
  seed : int;
  ledger : string option;
  checkpoint : string option;
  checkpoint_every : int;
  keep_checkpoints : int;
  resume : bool;
  fault_rate : float;
  workers : int;
  resilient : bool;
  scenario : string option;
  scenario_stride : int;
  objectives : string list option;
  metrics_out : string option;
  metrics_every : int;
  alerts : string option;
  progress : int option;
}

let default_step =
  { app = "nginx"; algorithm = "deeptune"; iterations = 100; seed = 0; ledger = None;
    checkpoint = None; checkpoint_every = P.Driver.default_checkpoint_every;
    keep_checkpoints = 1; resume = false; fault_rate = 0.; workers = 1; resilient = false;
    scenario = None; scenario_stride = 1; objectives = None; metrics_out = None;
    metrics_every = 10; alerts = None; progress = None }

let int_of flag v =
  match int_of_string_opt v with Some n -> n | None -> fail "%s: not an integer: %s" flag v

let rec parse_step st = function
  | [] -> st
  | ("run" | "--quiet") :: rest -> parse_step st rest
  | "--resume" :: rest -> parse_step { st with resume = true } rest
  | "--resilient" :: rest -> parse_step { st with resilient = true } rest
  | flag :: v :: rest ->
    let st =
      match flag with
      | "--app" -> { st with app = v }
      | "--algorithm" -> { st with algorithm = v }
      | "-n" -> { st with iterations = int_of flag v }
      | "--seed" -> { st with seed = int_of flag v }
      | "--ledger" -> { st with ledger = Some v }
      | "--checkpoint" -> { st with checkpoint = Some v }
      | "--checkpoint-every" -> { st with checkpoint_every = int_of flag v }
      | "--keep-checkpoints" -> { st with keep_checkpoints = int_of flag v }
      | "--fault-rate" -> (
        match float_of_string_opt v with
        | Some f -> { st with fault_rate = f }
        | None -> fail "--fault-rate: not a number: %s" v)
      | "--workers" -> { st with workers = int_of flag v }
      | "--scenario" -> { st with scenario = Some v }
      | "--scenario-stride" -> { st with scenario_stride = int_of flag v }
      | "--objectives" -> { st with objectives = Some (String.split_on_char ',' v) }
      | "--metrics-out" -> { st with metrics_out = Some v }
      | "--metrics-every" -> { st with metrics_every = int_of flag v }
      | "--alerts" -> { st with alerts = Some v }
      | "--progress" -> { st with progress = Some (int_of flag v) }
      | _ -> fail "unsupported flag %s" flag
    in
    parse_step st rest
  | [ flag ] -> fail "flag %s needs a value" flag

let unwrap what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* The built-in scenario the workloads use, as `wayfinder run --scenario`
   builds it. *)
let trace_for = function
  | "flash-crowd" ->
    S.Trace.flash_crowd ~window_s:1.0 ~windows:60 ~base:500. ~peak:1400. ~at:30 ~width:10
  | other -> fail "unsupported scenario %s" other

(* ------------------------------------------------------------------ *)
(* Wrapping the layers                                                  *)
(* ------------------------------------------------------------------ *)

let layer_of_algorithm = function "deeptune" -> "core" | "bayes" -> "gp" | _ -> "search"

let wrap_algorithm layer (a : P.Search_algorithm.t) =
  let seq = ref 0 in
  let propose ctx =
    let i = !seq in
    incr seq;
    span ~iter:i (layer ^ ".propose") (fun () -> a.P.Search_algorithm.propose ctx)
  in
  let propose_batch =
    Option.map
      (fun pb ctx ~k ->
        let i = !seq in
        let batch = span ~iter:i (layer ^ ".propose") (fun () -> pb ctx ~k) in
        seq := !seq + List.length batch;
        batch)
      a.P.Search_algorithm.propose_batch
  in
  let observe ctx (e : P.History.entry) =
    span ~iter:e.P.History.index (layer ^ ".observe") (fun () ->
        a.P.Search_algorithm.observe ctx e)
  in
  let predict =
    Option.map
      (fun p ctx c -> span ~iter:!seq (layer ^ ".predict") (fun () -> p ctx c))
      a.P.Search_algorithm.predict
  in
  { a with P.Search_algorithm.propose; propose_batch; observe; predict }

let wrap_target (t : P.Target.t) =
  { t with
    P.Target.evaluate =
      (fun ~trial c -> span ~iter:trial "simos.evaluate" (fun () -> t.P.Target.evaluate ~trial c))
  }

(* ------------------------------------------------------------------ *)
(* One step                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  result : P.Driver.result;
  workers : int;
  recorded : int;  (** Entries delivered to [on_record] (replays excluded). *)
  eval_virtual_s : float;  (** Virtual eval seconds of those entries. *)
  ck_saves : int;
  ck_bytes : int;
  alerts_fired : int;
}

let file_sig path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)
  | exception Unix.Unix_error _ -> None

let run_step st =
  let rules =
    match st.alerts with
    | None -> []
    | Some spec -> unwrap "--alerts" (M.Rules.parse spec)
  in
  if List.exists (function M.Rules.Starve _ -> true | _ -> false) rules then
    fail "the starve alert rule is not supported";
  let resume_from =
    if not st.resume then None
    else
      match st.checkpoint with
      | None -> fail "--resume requires --checkpoint"
      | Some path -> (
        match span "driver.resume.load" (fun () -> P.Checkpoint.load_latest path) with
        | Ok (ck, _) -> Some ck
        | Error e -> fail "checkpoint %s: %s" path (P.Checkpoint.error_to_string e))
  in
  let seed, workers, image_cache =
    match resume_from with
    | Some ck ->
      (ck.P.Checkpoint.seed, ck.P.Checkpoint.workers, Some ck.P.Checkpoint.cache_capacity)
    | None -> (st.seed, st.workers, None)
  in
  let app =
    match S.App.of_name st.app with Some a -> a | None -> fail "unknown app %s" st.app
  in
  let scenario_info =
    Option.map
      (fun kind ->
        let names = Option.value ~default:[ "throughput" ] st.objectives in
        let spec = unwrap "--objectives" (P.Objective.spec_of_names names) in
        (P.Scenario.create ~stride:st.scenario_stride (trace_for kind), spec))
      st.scenario
  in
  let target =
    span "setup.target" (fun () ->
        let target =
          match scenario_info with
          | None -> P.Targets.of_sim_linux (S.Sim_linux.create ()) ~app
          | Some (sc, spec) ->
            P.Targets.of_sim_linux_trace (S.Sim_linux.create ()) ~app ~scenario:sc
              ~objectives:spec ()
        in
        if st.fault_rate > 0. then
          P.Target.with_faults
            ~plan:(S.Faults.create ~rates:(S.Faults.rates_of_total st.fault_rate) ~seed ())
            target
        else target)
  in
  let space = target.P.Target.space and metric = target.P.Target.metric in
  let deeptune = ref None in
  let algorithm =
    span "setup.algo" (fun () ->
        match st.algorithm with
        | "random" -> P.Random_search.create ()
        | "bayes" -> P.Bayes_search.create ~seed ()
        | "deeptune" ->
          let dt = D.Deeptune.create ~options:D.Deeptune.default_options ~seed space in
          deeptune := Some dt;
          D.Deeptune.algorithm dt
        | other -> fail "unsupported algorithm %s" other)
  in
  let algorithm = wrap_algorithm (layer_of_algorithm st.algorithm) algorithm in
  let target = wrap_target target in
  let obs = Obs.Recorder.create () in
  let writer =
    Option.map
      (fun path ->
        A.Ledger.create_writer ~seed
          ?objectives:(Option.map (fun (_, spec) -> Array.to_list spec) scenario_info)
          ~algo:st.algorithm ~space ~metric path)
      st.ledger
  in
  let live = P.History.create metric in
  let live_series =
    if rules = [] && st.metrics_out = None then None
    else
      let params = CS.Space.params space in
      Some
        (M.Live_series.create ~metric
           ~names:(Array.map (fun (p : CS.Param.t) -> p.CS.Param.name) params)
           ~stages:(Array.map (fun (p : CS.Param.t) -> p.CS.Param.stage) params)
           ~objectives:(match scenario_info with Some (_, spec) -> spec | None -> [||])
           ())
  in
  let rules_state = M.Rules.create rules in
  let alerts_fired = ref 0 in
  let export_metrics () =
    match st.metrics_out with
    | None -> ()
    | Some path ->
      span "monitor.prom" (fun () ->
          let stats = Option.map M.Live_series.stats live_series in
          match
            P.Durable.atomic_write ~path
              (M.Prom.render ?stats ~snapshot:(Obs.Recorder.snapshot obs) ())
          with
          | Ok () -> ()
          | Error e -> fail "metrics export: %s" (P.Durable.io_error_to_string e))
  in
  (* Checkpoint saves are seen from outside: every atomic publish
     renames a fresh file into place, so the primary's identity changes. *)
  let ck_last = ref (Option.bind st.checkpoint file_sig) in
  let ck_saves = ref 0 and ck_bytes = ref 0 in
  let poll_checkpoint () =
    match st.checkpoint with
    | None -> ()
    | Some path -> (
      match file_sig path with
      | Some ((_, size, _) as s) when Some s <> !ck_last ->
        ck_last := Some s;
        incr ck_saves;
        ck_bytes := !ck_bytes + size
      | Some _ | None -> ())
  in
  let recorded = ref 0 and eval_virtual_s = ref 0. in
  let on_record =
    if writer = None && st.progress = None && live_series = None then None
    else
      Some
        (fun (entry : P.History.entry) belief ->
          span ~iter:entry.P.History.index "bench.on_record" (fun () ->
              incr recorded;
              eval_virtual_s := !eval_virtual_s +. entry.P.History.eval_seconds;
              (match writer with
              | Some w ->
                span ~iter:entry.P.History.index "analytics.ledger_record" (fun () ->
                    A.Ledger.record w entry belief)
              | None -> ());
              P.History.add live entry;
              (match live_series with
              | Some ls ->
                span "monitor.live_observe" (fun () ->
                    M.Live_series.observe ls (A.Ledger.row_of_entry entry belief));
                let firings = span "monitor.rules" (fun () -> M.Rules.evaluate rules_state ls) in
                List.iter
                  (fun (f : M.Rules.firing) ->
                    incr alerts_fired;
                    Obs.Recorder.alert obs ~rule:f.M.Rules.rule f.M.Rules.message;
                    Printf.eprintf "wayfinder: ALERT %s: %s\n%!" f.M.Rules.rule
                      f.M.Rules.message)
                  firings;
                if P.History.size live mod st.metrics_every = 0 then export_metrics ()
              | None -> ());
              (match st.progress with
              | Some n when P.History.size live mod n = 0 ->
                span "analytics.progress" (fun () ->
                    let series = A.Series.of_history ~space live in
                    let snap =
                      A.Progress.of_series ~metrics:(Obs.Recorder.snapshot obs) ~workers series
                    in
                    Printf.eprintf "%s\n%!"
                      (A.Progress.to_line ~alerts:(M.Rules.active rules_state) ~metric snap))
              | Some _ | None -> ());
              poll_checkpoint ()))
  in
  let resilience = if st.resilient then P.Resilience.default_resilient else P.Resilience.none in
  let result =
    span "driver.run" (fun () ->
        P.Driver.run ~seed ?on_record ~obs ~resilience ?checkpoint_path:st.checkpoint
          ~checkpoint_every:st.checkpoint_every ~checkpoint_keep:st.keep_checkpoints
          ?resume_from ~workers ?image_cache:(Option.map P.Image_cache.capacity image_cache)
          ?scenario:(Option.map fst scenario_info) ~target ~algorithm
          ~budget:(P.Driver.Iterations st.iterations) ())
  in
  poll_checkpoint ();
  Option.iter
    (fun w -> span "analytics.ledger_record" (fun () -> A.Ledger.close_writer w))
    writer;
  export_metrics ();
  (match !deeptune with
  | Some dt when D.Deeptune.observations dt > 20 ->
    ignore (span "core.impacts" (fun () -> D.Deeptune.parameter_impacts dt))
  | Some _ | None -> ());
  { result; workers; recorded = !recorded; eval_virtual_s = !eval_virtual_s;
    ck_saves = !ck_saves; ck_bytes = !ck_bytes; alerts_fired = !alerts_fired }

(* ------------------------------------------------------------------ *)
(* Read path: what `analyze --json --series`, `compare`, `watch --once`
   and `fsck --json` do                                                 *)
(* ------------------------------------------------------------------ *)

let read_path ledgers =
  let loaded =
    List.map
      (fun path ->
        match span "analytics.load" (fun () -> A.Ledger.load path) with
        | Ok l -> (path, l)
        | Error e -> fail "%s: %s" path (A.Ledger.error_to_string e))
      ledgers
  in
  let label path = Filename.remove_extension (Filename.basename path) in
  List.iter
    (fun (path, (l : A.Ledger.t)) ->
      span "analytics.analyze" (fun () ->
          let series = A.Series.of_ledger l in
          let report =
            A.Analyze.of_series ~label:(label path) ~algo:l.A.Ledger.meta.A.Ledger.algo series
          in
          ignore (A.Json.to_string (A.Analyze.to_json report));
          match
            P.Durable.atomic_write ~path:(path ^ ".series.csv") (A.Analyze.series_csv series)
          with
          | Ok () -> ()
          | Error e -> fail "series file: %s" (P.Durable.io_error_to_string e)))
    loaded;
  if List.length loaded >= 2 then
    span "analytics.compare" (fun () ->
        let labelled = List.map (fun (p, l) -> (label p, A.Series.of_ledger l)) loaded in
        ignore (A.Compare.to_text (unwrap "compare" (A.Compare.make labelled))));
  List.iter
    (fun path ->
      span "monitor.watch" (fun () ->
          let tail = M.Tail.create path in
          let step =
            match M.Tail.step tail with
            | Ok s -> s
            | Error e -> fail "%s: %s" path (A.Ledger.error_to_string e)
          in
          let meta =
            match M.Tail.meta tail with Some m -> m | None -> fail "%s: no meta record" path
          in
          let ls = M.Live_series.of_meta meta in
          let rules_state = M.Rules.create [] in
          List.iter
            (fun row ->
              M.Live_series.observe ls row;
              ignore (M.Rules.evaluate rules_state ls))
            step.M.Tail.rows;
          ignore
            (M.Dashboard.render ~alerts:(M.Rules.active rules_state)
               ~dropped:(M.Tail.dropped tail) ~seal:(M.Tail.seal tail) ~meta ls)))
    ledgers;
  let report =
    span "analytics.fsck" (fun () ->
        let r = A.Fsck.scan [ "." ] in
        ignore (A.Json.to_string (A.Fsck.report_json r));
        r)
  in
  report.A.Fsck.corrupt

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let spans_named name = List.filter (fun s -> s.name = name) !finished
let total ss = List.fold_left (fun acc s -> acc +. duration s) 0. ss

(* Nearest-rank quantile of the spans' durations, scaled. *)
let quantile ~scale q ss =
  match List.sort compare (List.map duration ss) with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    scale *. a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let words ss f = List.fold_left (fun acc s -> acc +. f s) 0. ss /. 1e6

(* Mean per-iteration searcher time (ms) over the first and the last
   [k] iteration ids. *)
let iter_ms layer ~k =
  let per_iter = Hashtbl.create 512 in
  List.iter
    (fun s ->
      if s.iter >= 0 && String.starts_with ~prefix:(layer ^ ".") s.name then
        Hashtbl.replace per_iter s.iter
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt per_iter s.iter)))
    !finished;
  let ordered =
    Hashtbl.fold (fun i d acc -> (i, d) :: acc) per_iter [] |> List.sort compare |> List.map snd
  in
  let mean = function
    | [] -> 0.
    | l -> 1000. *. List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let n = List.length ordered in
  ( mean (List.filteri (fun i _ -> i < k) ordered),
    mean (List.filteri (fun i _ -> i >= n - k) ordered) )

let searcher_metrics layer =
  let calls kind = spans_named (layer ^ "." ^ kind) in
  let propose = calls "propose" and observe = calls "observe" in
  let all = propose @ observe @ calls "predict" in
  let first, last = iter_ms layer ~k:100 in
  [ (layer ^ ".propose_s", total propose);
    (layer ^ ".propose_ms.p50", quantile ~scale:1000. 0.5 propose);
    (layer ^ ".propose_ms.p95", quantile ~scale:1000. 0.95 propose);
    (layer ^ ".observe_s", total observe);
    (layer ^ ".observe_ms.p50", quantile ~scale:1000. 0.5 observe);
    (layer ^ ".observe_ms.p95", quantile ~scale:1000. 0.95 observe);
    (layer ^ ".iter_ms.first100", first); (layer ^ ".iter_ms.last100", last);
    (layer ^ ".minor_mw", words all (fun s -> s.minor_words));
    (layer ^ ".major_mw", words all (fun s -> s.major_words)) ]

let metrics ~outcomes ~ledgers ~corrupt ~gc0 ~run_wall =
  let snap_sum name =
    List.fold_left
      (fun acc o -> acc +. Obs.Metrics.sum o.result.P.Driver.metrics name)
      0. outcomes
  in
  let sum_int f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let recorded = sum_int (fun o -> o.recorded) in
  let driver = spans_named "driver.run" in
  let driver_ids = List.map (fun s -> s.id) driver in
  let driver_children = List.filter (fun s -> List.mem s.parent driver_ids) !finished in
  let driver_self = total driver -. total driver_children in
  let searcher =
    List.filter
      (fun s ->
        List.exists
          (fun l -> String.starts_with ~prefix:(l ^ ".") s.name)
          [ "core"; "gp"; "search" ]
        && s.name <> "core.impacts")
      !finished
  in
  let eval_virtual = List.fold_left (fun acc o -> acc +. o.eval_virtual_s) 0. outcomes in
  let evaluate = spans_named "simos.evaluate" in
  let slot_busy =
    match List.rev outcomes with
    | [] -> 0.
    | o :: _ ->
      let r = o.result in
      let elapsed = S.Vclock.now r.P.Driver.clock in
      if elapsed <= 0. then 0.
      else P.History.total_eval_seconds r.P.Driver.history /. (float_of_int o.workers *. elapsed)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let gc = Gc.quick_stat () in
  [ ("trace.wall_s", run_wall);
    ("core.impacts_s", total (spans_named "core.impacts"));
    ("core.pool_s", snap_sum "deeptune.pool.wall_s");
    ("core.rank_s", snap_sum "deeptune.rank.wall_s");
    ("core.train_s", snap_sum "deeptune.train.wall_s");
    ("gp.fit_s", snap_sum "bayes.gp_fit.wall_s") ]
  @ searcher_metrics "core" @ searcher_metrics "gp"
  @ [ ("simos.evaluate.calls", float_of_int (List.length evaluate));
      ("simos.evaluate_s", total evaluate);
      ("simos.evaluate_us.p50", quantile ~scale:1e6 0.5 evaluate);
      ("simos.useful_ratio", ratio (float_of_int recorded) (float_of_int (List.length evaluate)));
      ("driver.self_s", driver_self);
      ("driver.self_ms_per_iter", ratio (1000. *. driver_self) (float_of_int recorded));
      ("driver.checkpoint.saves", float_of_int (sum_int (fun o -> o.ck_saves)));
      ("driver.checkpoint.mb_written", float_of_int (sum_int (fun o -> o.ck_bytes)) /. 1e6);
      ("driver.resume.load_s", total (spans_named "driver.resume.load"));
      ("driver.slot_busy_frac", slot_busy);
      ("driver.decide_per_eval", ratio (total searcher) eval_virtual);
      ("analytics.ledger_record_s", total (spans_named "analytics.ledger_record"));
      ( "analytics.ledger_record_us.p50",
        quantile ~scale:1e6 0.5
          (List.filter (fun s -> s.iter >= 0) (spans_named "analytics.ledger_record")) );
      ("analytics.ledger_mb", float_of_int (List.fold_left (fun acc p -> acc + size p) 0 ledgers) /. 1e6);
      ("analytics.progress_s", total (spans_named "analytics.progress"));
      ("analytics.load_s", total (spans_named "analytics.load"));
      ("analytics.analyze_s", total (spans_named "analytics.analyze"));
      ("analytics.compare_s", total (spans_named "analytics.compare"));
      ("analytics.fsck_s", total (spans_named "analytics.fsck"));
      ("analytics.fsck_corrupt", float_of_int corrupt);
      ("monitor.live_observe_s", total (spans_named "monitor.live_observe"));
      ("monitor.rules_s", total (spans_named "monitor.rules"));
      ("monitor.prom_s", total (spans_named "monitor.prom"));
      ("monitor.alerts_fired", float_of_int (sum_int (fun o -> o.alerts_fired)));
      ("monitor.watch_s", total (spans_named "monitor.watch"));
      ("gc.top_heap_mb", float_of_int gc.Gc.top_heap_words *. 8. /. 1e6);
      ("gc.major_collections", float_of_int (gc.Gc.major_collections - gc0.Gc.major_collections));
      ("setup.target_s", total (spans_named "setup.target"));
      ("setup.algo_s", total (spans_named "setup.algo")) ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let spans_path, rest =
    match List.tl (Array.to_list Sys.argv) with
    | "--spans" :: path :: rest -> (path, rest)
    | _ -> fail "usage: tracer.exe --spans FILE STEP [:: STEP]..."
  in
  let rec split acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | "::" :: rest -> split (List.rev cur :: acc) [] rest
    | a :: rest -> split acc (a :: cur) rest
  in
  let steps = List.map (parse_step default_step) (split [] [] rest) in
  let gc0 = Gc.quick_stat () in
  let outcomes, run_wall =
    let start = Unix.gettimeofday () in
    let o = span "bench.runs" (fun () -> List.map run_step steps) in
    (o, Unix.gettimeofday () -. start)
  in
  let ledgers = List.filter_map (fun st -> st.ledger) steps in
  let corrupt = span "bench.reads" (fun () -> read_path ledgers) in
  let ms = metrics ~outcomes ~ledgers ~corrupt ~gc0 ~run_wall in
  write_spans spans_path;
  print_endline
    ("{"
    ^ String.concat ","
        (List.map (fun (n, v) -> Printf.sprintf "%S:%s" n (Printf.sprintf "%.17g" v)) ms)
    ^ "}")
