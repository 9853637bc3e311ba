(* Cross-commit behaviour pins.

   The conformance properties compare engines against each other within
   one build, so a numeric-kernel change that moved every float the same
   way would pass them.  These tests pin digests of two fixed runs —
   recorded when the kernels were last known good — so any change to a
   float the DTM computes shows up here:

   - the run ledger, minus the wall-clock [decide_s] field and the [fin]
     crc that covers it (the same normalisation the CI byte-diff applies:
     the digest equals [sed 's/"decide_s":[0-9.e+-]*//; s/"crc":"[0-9a-f]*"//'
     LEDGER | md5sum] over the CLI run's ledger);
   - the top-5 learned parameter impacts, printed with [%h] (exact bits);
   - an MD5 of the final model snapshot, every float printed with [%h].

   Two more pins drive the CLI itself and compare its full stderr byte
   for byte: the progress and [ALERT] lines of a monitored flash-crowd run
   and of its resumed second half ([golden/progress-flash.txt]), the
   progress lines of a run with no other monitoring flag
   ([golden/progress-only.txt]), and a worker-starvation alert
   ([golden/starve-flash.txt]).  [golden/bayes-redis.digest] holds the
   normalised ledger digests of two CLI Bayesian-optimisation runs, one
   at one worker and one at four.

   One more pin, [golden/engine-conformance.digest], records the
   driver's whole outcome (history, metrics, clock, stop reason,
   iteration count, Pareto archive, trace cursor) over the conformance
   harness's domain; see [engine_conformance].

   To re-record after a deliberate behaviour change:
     dune exec test/test_golden.exe -- --print NAME > test/golden/FILE
   for each run NAME (and its FILE) in [runs] below. *)

module P = Wayfinder_platform
module S = Wayfinder_simos
module D = Wayfinder_deeptune
module A = Wayfinder_analytics
module C = Conformance

(* Drop every ["key":value] whose value consists of [value_chars]; the
   surrounding commas stay, exactly as with the sed above. *)
let strip_field ~key ~value_chars line =
  let pat = "\"" ^ key ^ "\":" in
  let plen = String.length pat in
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let rec go i =
    if i >= n then ()
    else if i + plen <= n && String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while !j < n && String.contains value_chars line.[!j] do
        incr j
      done;
      go !j
    end
    else begin
      Buffer.add_char b line.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let normalized_ledger path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         line
         |> strip_field ~key:"decide_s" ~value_chars:"0123456789.e+-"
         |> strip_field ~key:"crc" ~value_chars:"\"0123456789abcdef")
  |> String.concat "\n"

let floats_digest floats =
  let b = Buffer.create (Array.length floats * 24) in
  Array.iter (fun x -> Printf.bprintf b "%h\n" x) floats;
  Digest.to_hex (Digest.string (Buffer.contents b))

let with_ledger ~algo ?objectives ~target f =
  let path = Filename.temp_file "wayfinder_golden" ".ledger" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let writer =
        A.Ledger.create_writer ~seed:1 ?objectives ~algo ~space:target.P.Target.space
          ~metric:target.P.Target.metric path
      in
      f (A.Ledger.record writer);
      A.Ledger.close_writer writer;
      Digest.to_hex (Digest.string (normalized_ledger path)))

let iterations = 60

(* [run --app nginx --algorithm deeptune -n 60 --seed 1]. *)
let nginx_deeptune () =
  let target = P.Targets.of_sim_linux (S.Sim_linux.create ()) ~app:S.App.Nginx in
  let dt = D.Deeptune.create ~seed:1 target.P.Target.space in
  let ledger =
    with_ledger ~algo:"deeptune" ~target (fun on_record ->
        ignore
          (P.Driver.run ~seed:1 ~on_record ~resilience:P.Resilience.none ~target
             ~algorithm:(D.Deeptune.algorithm dt) ~budget:(P.Driver.Iterations iterations) ()))
  in
  let impacts = D.Deeptune.parameter_impacts dt in
  let top5 =
    List.init (min 5 (Array.length impacts)) (fun i ->
        let name, impact = impacts.(i) in
        Printf.sprintf "impact %h %s" impact name)
  in
  let model = D.Dtm.snapshot_to_floats (D.Deeptune.export dt).D.Deeptune.model in
  [ "ledger " ^ ledger ] @ top5 @ [ "export " ^ floats_digest model ]

(* [run --app nginx --algorithm deeptune-multi --scenario flash-crowd
   --scenario-stride 1 --objectives throughput,p99,memory -n 60 --seed 1]:
   the Dtm_multi training and prediction path. *)
let flash_crowd_multi () =
  let trace =
    S.Trace.flash_crowd ~window_s:1.0 ~windows:60 ~base:500. ~peak:1400. ~at:30 ~width:10
  in
  let scenario = P.Scenario.create ~stride:1 trace in
  let spec =
    match P.Objective.spec_of_names [ "throughput"; "p99"; "memory" ] with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let target =
    P.Targets.of_sim_linux_trace (S.Sim_linux.create ()) ~app:S.App.Nginx ~scenario
      ~objectives:spec ()
  in
  let objectives =
    Array.to_list
      (Array.map
         (fun (m : P.Metric.t) -> { D.Multi_objective.label = m.P.Metric.metric_name; weight = 1. })
         spec)
  in
  let proposer = D.Multi_objective.proposer ~seed:1 ~objectives target.P.Target.space in
  let ledger =
    with_ledger ~algo:"deeptune-multi" ~objectives:(Array.to_list spec) ~target (fun on_record ->
        ignore
          (P.Driver.run ~seed:1 ~on_record ~resilience:P.Resilience.none ~scenario ~target
             ~algorithm:(D.Multi_objective.of_proposer proposer ~spec)
             ~budget:(P.Driver.Iterations iterations) ()))
  in
  let model =
    D.Dtm_multi.snapshot_to_floats (D.Dtm_multi.export (D.Multi_objective.model proposer))
  in
  [ "ledger " ^ ledger; "export " ^ floats_digest model ]

(* Beside this test in the build tree, whatever the working directory. *)
let wayfinder =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "wayfinder.exe")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [wayfinder ARGS] with stdout discarded; its stderr, or a failure on a
   non-zero exit. *)
let cli_stderr args =
  let err = Filename.temp_file "wayfinder_golden" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        String.concat " " (List.map Filename.quote (wayfinder :: args))
        ^ " > " ^ Filename.quote Filename.null ^ " 2> " ^ Filename.quote err
      in
      let code = Sys.command cmd in
      if code <> 0 then failwith (Printf.sprintf "%s exited %d" cmd code);
      read_file err)

(* [run] on flash-crowd with 4 workers and faults. *)
let flash_crowd_run =
  [ "run"; "--app"; "nginx"; "--algorithm"; "random"; "--seed"; "1"; "--scenario";
    "flash-crowd"; "--scenario-stride"; "1"; "--objectives"; "throughput,p99,memory";
    "--workers"; "4"; "--fault-rate"; "0.1"; "--resilient" ]

(* With alert rules, [--progress 25] and a checkpoint: 200 iterations,
   then [--resume] to 400.  The resumed run's progress lines count from
   the resume point. *)
let progress_flash () =
  let dir = Filename.temp_dir "wayfinder_golden" "" in
  let checkpoint = Filename.concat dir "run.ck" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let flags =
        flash_crowd_run
        @ [ "--alerts"; "crash>0.5@40,stall>30"; "--progress"; "25"; "--checkpoint"; checkpoint ]
      in
      let first = cli_stderr (flags @ [ "-n"; "200" ]) in
      let second = cli_stderr (flags @ [ "--resume"; "-n"; "400" ]) in
      String.split_on_char '\n' (first ^ second))

(* [run --progress 20] with no alert rule and no metrics export: the
   progress lines alone must still be printed. *)
let progress_only () =
  String.split_on_char '\n'
    (cli_stderr
       [ "run"; "--app"; "nginx"; "--algorithm"; "random"; "--seed"; "1"; "--workers"; "4";
         "-n"; "100"; "--progress"; "20" ])

(* A [starve<1] rule: it only fires when [run] hands the rules the
   worker pool's busy fraction. *)
let starve_flash () =
  String.split_on_char '\n'
    (cli_stderr
       (flash_crowd_run @ [ "--alerts"; "starve<1"; "--progress"; "30"; "-n"; "300" ]))

(* The CLI's own ledger of a run, digested as [with_ledger] does. *)
let cli_ledger args =
  let path = Filename.temp_file "wayfinder_golden" ".ledger" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (cli_stderr (args @ [ "--ledger"; path; "--quiet" ]));
      Digest.to_hex (Digest.string (normalized_ledger path)))

(* Bayesian optimisation at its real pool size of 200: [run --app redis
   --algorithm bayes --seed 1 -n 150], the perfbench workload, and a
   [--workers 4] run, whose batches go through the constant-liar refits
   of [propose_batch]. *)
let bayes_redis () =
  let bayes = [ "run"; "--app"; "redis"; "--algorithm"; "bayes"; "--seed"; "1" ] in
  [ "ledger " ^ cli_ledger (bayes @ [ "-n"; "150" ]);
    "ledger-workers4 " ^ cli_ledger (bayes @ [ "--workers"; "4"; "-n"; "60" ]) ]

(* [Driver.run] at one worker over the conformance domain (seeds 0-1000
   × {random, grid, bayes, unicorn} × fault rate {0, 0.10}, 10
   iterations; the same at fault rate 0.10 under the default resilient
   policy), plus DeepTune at seed 3 and every scenario searcher at seed 7
   with its Pareto archive and trace cursor.  The lines are built by
   [Conformance.fixture_lines]. *)
let engine_conformance = C.fixture_lines

(* (name, golden file, compute, whether blank lines are significant). *)
let runs =
  [ ("sim-linux-nginx-deeptune", "sim-linux-nginx-deeptune.digest", nginx_deeptune, false);
    ("flash-crowd-multi", "flash-crowd-multi.digest", flash_crowd_multi, false);
    ("progress-flash", "progress-flash.txt", progress_flash, true);
    ("progress-only", "progress-only.txt", progress_only, true);
    ("starve-flash", "starve-flash.txt", starve_flash, true);
    ("bayes-redis", "bayes-redis.digest", bayes_redis, false);
    ("engine-conformance", "engine-conformance.digest", engine_conformance, false) ]

let read_lines ~exact path =
  read_file (Filename.concat "golden" path)
  |> String.split_on_char '\n'
  |> List.filter (fun l -> exact || l <> "")

(* A mismatch lists only the lines missing from, and added to, the
   golden file, so a fixture of many digest lines names its failing
   blocks. *)
let check_run (name, file, compute, exact) () =
  let expected = read_lines ~exact file in
  let actual = compute () in
  if actual <> expected then begin
    let only l other = List.filter (fun x -> not (List.mem x other)) l in
    let lines sign l = List.map (fun x -> sign ^ x) l in
    Alcotest.failf "%s differs from golden/%s (%d lines expected, %d computed):\n%s" name file
      (List.length expected) (List.length actual)
      (String.concat "\n" (lines "- " (only expected actual) @ lines "+ " (only actual expected)))
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "--print"; name ] ->
    let _, _, compute, exact = List.find (fun (n, _, _, _) -> n = name) runs in
    print_string (String.concat "\n" (compute ()));
    if not exact then print_newline ()
  | _ ->
    Alcotest.run "golden"
      [ ( "golden",
          List.map
            (fun ((name, _, _, _) as run) -> Alcotest.test_case name `Quick (check_run run))
            runs ) ]
