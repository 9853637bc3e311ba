(* Crash consistency, proven: CRC-32 vectors, the atomic-write and
   checkpoint-save crash matrices over the deterministic fault backend
   (every byte and operation boundary, under every loss plan), ledger
   torn-tail salvage at every cut point, fsck detection completeness
   over seeded corruption, and crash recovery composed with the
   kill-and-resume test at a 10 % fault rate. *)

open Wayfinder_platform
module A = Wayfinder_analytics
module S = Wayfinder_simos
module Faults = S.Faults
module Space = Wayfinder_configspace.Space
module Param = Wayfinder_configspace.Param
module Obs = Wayfinder_obs
module Mem = Durable.Mem

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fault_plans = [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc_known_answers () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check string) "check vector" "cbf43926" (Crc32.to_hex (Crc32.digest "123456789"));
  Alcotest.(check string) "empty string" "00000000" (Crc32.to_hex (Crc32.digest ""));
  Alcotest.(check bool) "of_hex inverts to_hex" true
    (Crc32.of_hex "cbf43926" = Some (Crc32.digest "123456789"));
  Alcotest.(check bool) "of_hex rejects non-hex" true (Crc32.of_hex "not-hex!" = None);
  Alcotest.(check bool) "of_hex rejects short input" true (Crc32.of_hex "abc" = None);
  Alcotest.(check bool) "of_hex accepts upper case" true
    (Crc32.of_hex "CBF43926" = Some (Crc32.digest "123456789"));
  (* Int32.of_string alone would read "1234_567" as 0x01234567 and take
     a sign; none of these is eight hex digits. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "of_hex rejects %S" s) true (Crc32.of_hex s = None))
    [ "1234_567"; "_1234567"; "1234567_"; "+1234567"; "-1234567"; "+0000000"; "-0000000";
      "0x123456"; "1234567 "; "cbf4392g" ]

(* CRC-32 by its definition, one bit at a time and without the table:
   the oracle for the table-driven loop. *)
let crc_reference s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 1 to 8 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let test_crc_reference_check_value () =
  Alcotest.(check string) "reference check value" "cbf43926"
    (Crc32.to_hex (crc_reference "123456789"))

let prop_crc_matches_reference =
  QCheck2.Test.make ~name:"table crc equals the bitwise reference under any chunking" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 0 300)) (list_size (int_range 0 6) nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let rec chunks pos = function
        | [] -> [ String.sub s pos (n - pos) ]
        | c :: rest -> String.sub s pos (c - pos) :: chunks c rest
      in
      Crc32.finish (List.fold_left Crc32.update Crc32.init (chunks 0 cuts)) = crc_reference s)

let prop_crc_streaming =
  QCheck2.Test.make ~name:"streaming crc equals one-shot digest" ~count:200
    QCheck2.Gen.(pair string nat)
    (fun (s, k) ->
      let k = if s = "" then 0 else k mod (String.length s + 1) in
      let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
      Crc32.finish (Crc32.update (Crc32.update Crc32.init a) b) = Crc32.digest s)

(* ------------------------------------------------------------------ *)
(* Atomic write: crash matrix                                          *)
(* ------------------------------------------------------------------ *)

let old_content = "old content, durable before the test begins\n"

let new_content =
  String.concat "" (List.init 12 (fun i -> Printf.sprintf "replacement line %d\n" i))

let test_atomic_write_publishes () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  (match Durable.atomic_write ~backend ~path:"f" new_content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Durable.io_error_to_string e));
  Alcotest.(check bool) "content published" true (Mem.get_file fs "f" = Some new_content);
  Alcotest.(check bool) "no staging file left" true (Mem.list_files fs = [ "f" ])

let test_atomic_write_crash_matrix () =
  (* One uninterrupted run fixes the sweep range: cost is 1 per
     primitive plus 1 per byte written, so fuel 0..total kills the
     protocol at every operation and byte boundary. *)
  let probe = Mem.create () in
  Mem.set_file probe "f" old_content;
  (match Durable.atomic_write ~backend:(Mem.backend probe) ~path:"f" new_content with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Durable.io_error_to_string e));
  let total = Mem.cost probe in
  let states = ref 0 in
  List.iter
    (fun (keep_unsynced, keep_renames) ->
      for fuel = 0 to total do
        let fs = Mem.create ~keep_unsynced ~keep_renames () in
        Mem.set_file fs "f" old_content;
        Mem.set_fuel fs fuel;
        (match Durable.atomic_write ~backend:(Mem.backend fs) ~path:"f" new_content with
        | Ok () | Error _ -> ()
        | exception Mem.Crashed -> ());
        Mem.crash fs;
        (match Mem.get_file fs "f" with
        | Some c when c = old_content || c = new_content -> incr states
        | Some c ->
          Alcotest.failf "fuel %d (unsynced=%b renames=%b): torn content %S" fuel keep_unsynced
            keep_renames c
        | None ->
          Alcotest.failf "fuel %d (unsynced=%b renames=%b): file disappeared" fuel keep_unsynced
            keep_renames)
      done)
    fault_plans;
  Alcotest.(check int) "full matrix exercised" (4 * (total + 1)) !states

(* ------------------------------------------------------------------ *)
(* Checkpoint save: crash matrix with generation rotation              *)
(* ------------------------------------------------------------------ *)

let mk_entry index =
  { History.index;
    config = [| Param.Vint (index mod 13) |];
    value = (if index mod 3 = 0 then None else Some (100.5 +. float_of_int index));
    failure = (if index mod 3 = 0 then Some Failure.Runtime_crash else None);
    at_seconds = 0.5 *. float_of_int (index + 1);
    eval_seconds = 16.25;
    built = index mod 2 = 0;
    decide_seconds = 1e-4; objectives = None }

let sample_ck n =
  { Checkpoint.seed = 42;
    rng_state = Int64.of_int (9999 + n);
    clock_seconds = float_of_int n *. 7.5;
    budget_start_seconds = 0.;
    iterations = n;
    workers = 1;
    consecutive_invalid = 0;
    cache_capacity = 1;
    cache = [];
    strikes = [];
    quarantined = [];
    entries = List.init n mk_entry;
    inflight = [];
    pareto = [];
    trace_cursor = None }

(* [publisher ()] makes the saver of one simulated process: the plain
   one-shot [Checkpoint.save], or a [Checkpoint.Writer] that saw the old
   state before the new one. *)
let plain_publisher () ~backend ck = Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" ck

let writer_publisher () =
  let w = Checkpoint.Writer.create () in
  fun ~backend ck -> ignore (Checkpoint.Writer.save w ~backend ~keep:2 ~path:"s.ckpt" ck)

let checkpoint_crash_step ?(publisher = plain_publisher) ~keep_unsynced ~keep_renames ~old_ck
    ~new_ck fuel =
  let fs = Mem.create ~keep_unsynced ~keep_renames () in
  let backend = Mem.backend fs in
  let publish = publisher () in
  publish ~backend old_ck;
  Mem.set_fuel fs fuel;
  (match publish ~backend new_ck with
  | () -> ()
  | exception Mem.Crashed -> ()
  | exception Durable.Io_error _ -> ());
  Mem.crash fs;
  (match Checkpoint.load_latest ~backend "s.ckpt" with
  | Error e ->
    Alcotest.failf "fuel %d (unsynced=%b renames=%b): no generation loads: %s" fuel
      keep_unsynced keep_renames (Checkpoint.error_to_string e)
  | Ok (ck, _) ->
    if not (ck = old_ck || ck = new_ck) then
      Alcotest.failf "fuel %d (unsynced=%b renames=%b): loaded neither old nor new state" fuel
        keep_unsynced keep_renames);
  (* The same saver, retried after the kill, publishes the new state
     exactly: a publish that died does not poison its memo. *)
  publish ~backend new_ck;
  if Mem.get_file fs "s.ckpt" <> Some (Checkpoint.to_string new_ck) then
    Alcotest.failf "fuel %d (unsynced=%b renames=%b): retried save published other bytes" fuel
      keep_unsynced keep_renames

let checkpoint_save_cost ~old_ck ~new_ck =
  let probe = Mem.create () in
  let backend = Mem.backend probe in
  Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" old_ck;
  let before = Mem.cost probe in
  Checkpoint.save ~backend ~keep:2 ~path:"s.ckpt" new_ck;
  Mem.cost probe - before

(* The next state of a run: one more entry, the old ones shared
   physically, as the driver hands them to its writer. *)
let extend (ck : Checkpoint.t) =
  let n = ck.Checkpoint.iterations in
  { (sample_ck (n + 1)) with Checkpoint.entries = ck.Checkpoint.entries @ [ mk_entry n ] }

let test_checkpoint_save_crash_matrix () =
  (* Small checkpoints keep the exhaustive per-byte sweep fast. *)
  let old_ck = sample_ck 2 in
  let new_ck = extend old_ck in
  let total = checkpoint_save_cost ~old_ck ~new_ck in
  List.iter
    (fun publisher ->
      List.iter
        (fun (keep_unsynced, keep_renames) ->
          for fuel = 0 to total do
            checkpoint_crash_step ~publisher ~keep_unsynced ~keep_renames ~old_ck ~new_ck fuel
          done)
        fault_plans)
    [ plain_publisher; writer_publisher ]

let prop_checkpoint_crash_matrix =
  (* The qcheck face of the same property, on a larger checkpoint:
     random kill points, loss plans and savers, recovery always yields
     old or new. *)
  let old_ck = sample_ck 12 in
  let new_ck = extend old_ck in
  let total = checkpoint_save_cost ~old_ck ~new_ck in
  QCheck2.Test.make ~name:"checkpoint save killed anywhere recovers old or new" ~count:150
    QCheck2.Gen.(quad (int_range 0 total) bool bool bool)
    (fun (fuel, keep_unsynced, keep_renames, through_writer) ->
      let publisher = if through_writer then writer_publisher else plain_publisher in
      checkpoint_crash_step ~publisher ~keep_unsynced ~keep_renames ~old_ck ~new_ck fuel;
      true)

let test_checkpoint_generation_rotation () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  for n = 1 to 5 do
    Checkpoint.save ~backend ~keep:3 ~path:"s.ckpt" (sample_ck n)
  done;
  Alcotest.(check (list string)) "three generations retained"
    [ "s.ckpt"; "s.ckpt.1"; "s.ckpt.2" ] (Mem.list_files fs);
  let gen i =
    match Checkpoint.load_from ~backend ~path:(Checkpoint.generation_path "s.ckpt" i) with
    | Ok ck -> ck.Checkpoint.iterations
    | Error e -> Alcotest.failf "generation %d: %s" i (Checkpoint.error_to_string e)
  in
  Alcotest.(check (list int)) "newest first" [ 5; 4; 3 ] [ gen 0; gen 1; gen 2 ];
  (* Corrupt the primary: load_latest falls back and says so. *)
  Mem.flip_bit fs "s.ckpt" 300;
  match Checkpoint.load_latest ~backend "s.ckpt" with
  | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
  | Ok (ck, notice) ->
    Alcotest.(check int) "fell back one generation" 4 ck.Checkpoint.iterations;
    (match notice with
    | Some (Checkpoint.Recovered_from_generation { generation = 1; dropped = [ _ ]; _ }) -> ()
    | Some n -> Alcotest.failf "unexpected notice: %s" (Checkpoint.notice_to_string n)
    | None -> Alcotest.fail "expected a recovery notice")

(* ------------------------------------------------------------------ *)
(* Checkpoint writer: incremental saves, one-shot bytes                 *)
(* ------------------------------------------------------------------ *)

module Writer = Checkpoint.Writer

(* Strings over the characters the line format reserves. *)
let gen_reserved =
  QCheck2.Gen.(string_size ~gen:(oneofl [ '%'; ' '; '\t'; '\n'; '\r'; 'a'; '0' ]) (int_range 0 6))

let gen_float =
  QCheck2.Gen.(
    oneof
      [ float_range (-1e6) 1e6;
        oneofl [ 0.; -0.; 0.1; 1e-300; 5e-324; 1.7976931348623157e308; -2.5e17 ] ])

let gen_entry =
  let open QCheck2.Gen in
  let gen_value =
    oneof
      [ map (fun i -> Param.Vint i) int;
        map (fun b -> Param.Vbool b) bool;
        map (fun i -> Param.Vtristate i) (int_range 0 2);
        map (fun i -> Param.Vcat i) (int_range 0 9) ]
  in
  let gen_failure =
    oneof [ oneofl Failure.all_named; map (fun s -> Failure.Other ("oops" ^ s)) gen_reserved ]
  in
  let* config = array_size (int_range 0 4) gen_value
  and* value = opt gen_float
  and* failure = opt gen_failure
  and* at_seconds = gen_float
  and* eval_seconds = gen_float
  and* decide_seconds = gen_float
  and* built = bool in
  let+ objectives = opt (array_size (int_range 0 3) gen_float) in
  { History.index = 0; config; value; failure; at_seconds; eval_seconds; built; decide_seconds;
    objectives }

(* Everything a save rewrites besides the entry lines, at the sizes a
   four-worker run produces. *)
let gen_state =
  let open QCheck2.Gen in
  let* rng = int64
  and* clock = gen_float
  and* cache =
    list_size (int_range 0 4)
      (pair gen_reserved
         (oneof
            [ return Image_cache.Built;
              map (fun f -> Image_cache.Build_failed f) (oneofl Failure.all_named) ]))
  and* strikes = list_size (int_range 0 3) (pair gen_reserved small_nat)
  and* quarantined = list_size (int_range 0 3) gen_reserved
  and* inflight = list_size (int_range 0 3) (triple (int_range 0 3) gen_float gen_entry)
  and* pareto = list_size (int_range 0 3) (pair small_nat (array_size (int_range 0 3) gen_float)) in
  let+ trace_cursor = opt small_nat in
  fun entries ->
    let cache =
      List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) cache
      |> List.map (fun (k, status) -> (k, { Image_cache.status; origin = 0 }))
    in
    { Checkpoint.seed = 7;
      rng_state = rng;
      clock_seconds = clock;
      budget_start_seconds = 0.;
      iterations = List.length entries;
      workers = 4;
      consecutive_invalid = 0;
      cache_capacity = 4;
      cache;
      strikes;
      quarantined;
      entries;
      inflight =
        List.mapi
          (fun i (slot, start_seconds, e) ->
            let entry = { e with History.index = 100_000 + i } in
            { Checkpoint.index = entry.History.index; slot; start_seconds; entry })
          inflight;
      pareto;
      trace_cursor }

type step = {
  added : History.entry list;
  save : bool;
  unrelated : bool;
      (** Replace the history by copies of a prefix of it: equal values,
          none physically shared, so the writer must re-format. *)
  keep_prefix : int;
  state : History.entry list -> Checkpoint.t;
}

let gen_step =
  let open QCheck2.Gen in
  let* added = list_size (int_range 0 5) gen_entry
  and* save = map (fun k -> k > 0) (int_range 0 3)
  and* unrelated = map (fun k -> k = 0) (int_range 0 5)
  and* keep_prefix = small_nat in
  let+ state = gen_state in
  { added; save; unrelated; keep_prefix; state }

let prop_writer_equals_one_shot =
  QCheck2.Test.make ~name:"writer saves equal the one-shot serializer" ~count:200
    QCheck2.Gen.(list_size (int_range 1 15) gen_step)
    (fun steps ->
      let fs = Mem.create () in
      let backend = Mem.backend fs in
      let w = Writer.create () in
      let entries = ref [] and unsaved = ref 0 and reformat = ref false in
      List.for_all
        (fun step ->
          if step.unrelated then begin
            let n = List.length !entries in
            let keep = if n = 0 then 0 else step.keep_prefix mod (n + 1) in
            let copy (e : History.entry) = { e with History.index = e.History.index } in
            entries := List.filteri (fun i _ -> i < keep) (List.map copy !entries);
            reformat := true
          end;
          let base = List.length !entries in
          entries :=
            !entries @ List.mapi (fun i e -> { e with History.index = base + i }) step.added;
          unsaved := !unsaved + List.length step.added;
          (not step.save)
          ||
          let ck = step.state !entries in
          let stats = Writer.save w ~backend ~keep:2 ~path:"w.ckpt" ck in
          let expected = Checkpoint.to_string ck in
          let appended = if !reformat then List.length !entries else !unsaved in
          unsaved := 0;
          reformat := false;
          Mem.get_file fs "w.ckpt" = Some expected
          && stats.Writer.bytes = String.length expected
          && stats.Writer.appended = appended
          && Checkpoint.of_string expected = Ok ck)
        steps)

let test_writer_reformats_foreign_history () =
  let fs = Mem.create () in
  let backend = Mem.backend fs in
  let w = Writer.create () in
  let save ck =
    let stats = Writer.save w ~backend ~path:"w.ckpt" ck in
    Alcotest.(check bool) "bytes equal the one-shot serializer" true
      (Mem.get_file fs "w.ckpt" = Some (Checkpoint.to_string ck));
    stats.Writer.appended
  in
  let a = sample_ck 5 in
  Alcotest.(check int) "first save formats everything" 5 (save a);
  Alcotest.(check int) "a repeated save formats nothing" 0 (save a);
  let b = extend a in
  Alcotest.(check int) "an extension formats only the new entry" 1 (save b);
  (* Same length, the same physical last entry, one earlier entry
     replaced: the memo does not trust the last entry alone. *)
  let tampered =
    { b with
      Checkpoint.entries =
        List.mapi
          (fun i (e : History.entry) ->
            if i = 2 then { e with History.built = not e.History.built } else e)
          b.Checkpoint.entries }
  in
  Alcotest.(check int) "a rewritten prefix re-formats" 6 (save tampered);
  Alcotest.(check int) "a shorter, unrelated history re-formats" 2 (save (sample_ck 2));
  Alcotest.(check int) "an empty history" 0 (save (sample_ck 0))

(* A fixed checkpoint with every line kind, reserved characters in every
   percent-encoded field, and the digest and size the one-shot
   serializer gave it before the writer existed: the incremental writer
   changed no byte of the format. *)
let rich_ck () =
  let entry i =
    { (mk_entry i) with
      History.config =
        (if i = 1 then [||]
         else [| Param.Vint (-i); Param.Vbool true; Param.Vtristate 1; Param.Vcat 3 |]);
      failure =
        (if i = 2 then Some (Failure.Other "50% of\ta \r\nrun") else (mk_entry i).History.failure);
      objectives =
        (if i = 3 then Some [| 1.5; -0.25; 1e300 |] else if i = 4 then Some [||] else None) }
  in
  { Checkpoint.seed = 3;
    rng_state = -1234567890123L;
    clock_seconds = 4096.125;
    budget_start_seconds = 12.5;
    iterations = 6;
    workers = 4;
    consecutive_invalid = 2;
    cache_capacity = 3;
    cache =
      [ ("i1 b0 % key", { Image_cache.status = Image_cache.Built; origin = 2 });
        ( "i2\tb1",
          { Image_cache.status = Image_cache.Build_failed Failure.Build_failure; origin = 0 } ) ];
    strikes = [ ("a key", 1); ("b%25", 3) ];
    quarantined = [ "b%25" ];
    entries = List.init 6 entry;
    inflight =
      [ { Checkpoint.index = 6; slot = 1; start_seconds = 4000.; entry = entry 6 };
        { Checkpoint.index = 7; slot = 3; start_seconds = 4001.5; entry = entry 7 } ];
    pareto = [ (0, [| 1.; 2. |]); (3, [| 1.5; -0.25; 1e300 |]) ];
    trace_cursor = Some 17 }

let test_writer_format_known_answer () =
  let s = Checkpoint.to_string (rich_ck ()) in
  Alcotest.(check (pair int string)) "size and digest of the v5 bytes" (1096, "698a646f")
    (String.length s, Crc32.to_hex (Crc32.digest s));
  Alcotest.(check bool) "roundtrip" true (Checkpoint.of_string s = Ok (rich_ck ()))

(* Allocation ratchet, measured with [Gc.minor_words] ([Gc.quick_stat]
   reports no minor words on OCaml 5).  On this input the serializer
   that re-formatted everything spent 17.1 M minor words, 11.5 M of them
   boxing an int32 per byte in the CRC loop; a writer save with nothing
   new spends ~9 words per kept line (the int32 state boxed in and out
   of each CRC call, and the line's cell in the list of pieces), 18.6 k
   in all.  The bound keeps the re-formatting path from coming back. *)
let test_writer_allocation_ratchet () =
  let n = 2000 in
  let entries =
    List.init n (fun i ->
        { (mk_entry i) with
          History.config = Array.init 198 (fun j -> Param.Vint ((i * 7919) + j)) })
  in
  let ck = { (sample_ck 0) with Checkpoint.iterations = n; entries } in
  let minor_words f =
    let before = Gc.minor_words () in
    let r = Sys.opaque_identity (f ()) in
    (r, Gc.minor_words () -. before)
  in
  let w = Writer.create () in
  let first, one_shot = minor_words (fun () -> Writer.to_string w ck) in
  let again, warm = minor_words (fun () -> Writer.to_string w ck) in
  Printf.printf "%d entries, %d bytes: first save %.0f minor words, warm save %.0f\n" n
    (String.length first) one_shot warm;
  Alcotest.(check bool) "warm save equals the first" true (String.equal first again);
  if warm >= 50_000. then Alcotest.failf "warm save allocated %.0f minor words (bound 50000)" warm

(* ------------------------------------------------------------------ *)
(* Ledger: torn tails, salvage, typed errors                           *)
(* ------------------------------------------------------------------ *)

let ledger_space () = Space.create [ Param.int_param "x" ~lo:0 ~hi:12 ~default:3 ]

(* A sealed ledger's exact bytes, via the real writer. *)
let sealed_ledger_bytes ?(rows = 8) () =
  let path = Filename.temp_file "wayfinder" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w =
        A.Ledger.create_writer ~seed:7 ~algo:"random" ~space:(ledger_space ())
          ~metric:Metric.throughput path
      in
      for i = 0 to rows - 1 do
        A.Ledger.record w (mk_entry i) None
      done;
      A.Ledger.close_writer w;
      In_channel.with_open_bin path In_channel.input_all)

let test_ledger_seal_roundtrip () =
  let full = sealed_ledger_bytes () in
  match A.Ledger.of_string full with
  | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  | Ok t ->
    Alcotest.(check bool) "sealed" true t.A.Ledger.sealed;
    Alcotest.(check int) "all rows" 8 (List.length t.A.Ledger.rows)

let test_ledger_torn_tail_matrix () =
  let full = sealed_ledger_bytes () in
  let full_rows =
    match A.Ledger.of_string full with
    | Ok t -> Array.of_list t.A.Ledger.rows
    | Error e -> Alcotest.fail (A.Ledger.error_to_string e)
  in
  let header_end = String.index full '\n' + 1 in
  let meta_end = String.index_from full header_end '\n' + 1 in
  for cut = 0 to String.length full do
    let s = String.sub full 0 cut in
    match A.Ledger.salvage_string s with
    | Error _ ->
      if cut >= meta_end then
        Alcotest.failf "cut %d: salvage refused a file with intact header+meta" cut
    | Ok r ->
      if cut < meta_end - 1 then
        Alcotest.failf "cut %d: salvage accepted a damaged header/meta" cut;
      let rows = Array.of_list r.A.Ledger.ledger.A.Ledger.rows in
      (* Salvaged rows are exactly the fully-written prefix. *)
      Array.iteri
        (fun i (row : A.Ledger.row) ->
          if row.A.Ledger.index <> full_rows.(i).A.Ledger.index then
            Alcotest.failf "cut %d: salvaged row %d diverges from the original" cut i)
        rows;
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: at most the torn line dropped" cut)
        true
        (List.length r.A.Ledger.dropped <= 1);
      (* Repairing any truncation yields a loadable, sealed ledger with
         the clean-prefix rows. *)
      (match A.Ledger.repair_string s with
      | Error e -> Alcotest.failf "cut %d: repair failed: %s" cut (A.Ledger.error_to_string e)
      | Ok (fixed, report) -> (
        match A.Ledger.of_string fixed with
        | Error e ->
          Alcotest.failf "cut %d: repaired ledger unreadable: %s" cut
            (A.Ledger.error_to_string e)
        | Ok t ->
          Alcotest.(check bool) (Printf.sprintf "cut %d: repaired is sealed" cut) true
            t.A.Ledger.sealed;
          Alcotest.(check int)
            (Printf.sprintf "cut %d: repaired rows" cut)
            report.A.Ledger.clean_prefix_rows
            (List.length t.A.Ledger.rows)))
  done

let test_ledger_typed_errors () =
  let full = sealed_ledger_bytes () in
  let header_end = String.index full '\n' + 1 in
  (* Truncated header: not a ledger at all. *)
  (match A.Ledger.of_string (String.sub full 0 5) with
  | Error A.Ledger.Missing_header -> ()
  | Error e -> Alcotest.failf "expected Missing_header, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated header accepted");
  (* Truncated meta: position-anchored Malformed. *)
  (match A.Ledger.of_string (String.sub full 0 (header_end + 3)) with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "meta error names line 2 and byte offset: %S" msg)
      true
      (contains_sub msg (Printf.sprintf "line 2 (byte %d)" header_end))
  | Error e -> Alcotest.failf "expected Malformed, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated meta accepted");
  (* Torn tail mid-row: Malformed with the line/byte anchor. *)
  (match A.Ledger.of_string (String.sub full 0 (String.length full - 60)) with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "torn tail names its position: %S" msg)
      true
      (contains_sub msg "line " && contains_sub msg " (byte ")
  | Error e -> Alcotest.failf "expected Malformed, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "torn tail accepted");
  (* A bit flip that keeps every line valid JSON is still caught by the
     fin seal's CRC. *)
  let flipped =
    let target = "\"i\":1" in
    let rec find i =
      if i + String.length target > String.length full then
        Alcotest.fail "row marker not found"
      else if String.sub full i (String.length target) = target then i
      else find (i + 1)
    in
    let i = find 0 in
    let b = Bytes.of_string full in
    Bytes.set b (i + 4) '2';
    Bytes.to_string b
  in
  (match A.Ledger.of_string flipped with
  | Error (A.Ledger.Malformed msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "silent bit flip caught by the seal: %S" msg)
      true (contains_sub msg "crc mismatch")
  | Error e -> Alcotest.failf "expected crc mismatch, got %s" (A.Ledger.error_to_string e)
  | Ok _ -> Alcotest.fail "bit-flipped sealed ledger accepted");
  (* Without its fin line the same file is merely unsealed, not corrupt:
     a killed writer is the normal case. *)
  let fin_start = String.rindex_from full (String.length full - 2) '\n' + 1 in
  match A.Ledger.of_string (String.sub full 0 fin_start) with
  | Ok t ->
    Alcotest.(check bool) "unsealed" false t.A.Ledger.sealed;
    Alcotest.(check int) "all rows kept" 8 (List.length t.A.Ledger.rows)
  | Error e -> Alcotest.failf "unsealed ledger rejected: %s" (A.Ledger.error_to_string e)

(* ------------------------------------------------------------------ *)
(* fsck: detection completeness over seeded corruption                 *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "wayfinder_fsck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let write_file path data = Durable.atomic_write_exn ~path data
let read_file path = In_channel.with_open_bin path In_channel.input_all

let flip_bit_in_file path bit =
  let b = Bytes.of_string (read_file path) in
  let byte = bit / 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (0x80 lsr (bit mod 8))));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

(* Status of a single file per fsck. *)
let fsck_status path =
  match (A.Fsck.scan [ path ]).A.Fsck.findings with
  | [ f ] -> f.A.Fsck.status
  | fs -> Alcotest.failf "expected one finding for %s, got %d" path (List.length fs)

let test_fsck_detects_all_seeded_corruption () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "search.ckpt" in
      let ledger = Filename.concat dir "run.jsonl" in
      let report = Filename.concat dir "report.json" in
      for n = 1 to 2 do
        Checkpoint.save ~keep:2 ~path:ckpt (sample_ck n)
      done;
      write_file ledger (sealed_ledger_bytes ());
      write_file report "{\"benchmark\":\"cache\",\"cells\":[{\"hits\":3}]}\n";
      (* Pristine tree: everything valid, exit clean. *)
      let pristine = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "pristine tree is clean" true pristine.A.Fsck.clean;
      Alcotest.(check int) "pristine: all valid" pristine.A.Fsck.scanned pristine.A.Fsck.valid;
      let seeded = ref 0 and detected = ref 0 in
      let expect_detected path what ok =
        incr seeded;
        if ok then incr detected else Alcotest.failf "%s: %s went undetected" path what
      in
      (* Bit flips: every sampled position in checkpoints and the sealed
         ledger must be caught (CRC envelope / fin seal). *)
      List.iter
        (fun path ->
          let original = read_file path in
          let bits = 8 * String.length original in
          let rec sweep bit =
            if bit < bits then begin
              flip_bit_in_file path bit;
              expect_detected path
                (Printf.sprintf "bit flip at %d" bit)
                (fsck_status path = A.Fsck.Corrupt);
              Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
              sweep (bit + 509)
            end
          in
          sweep 0)
        [ ckpt; ckpt ^ ".1"; ledger ];
      (* Truncations: any proper prefix of a checkpoint is corrupt; any
         proper prefix of a sealed ledger is at best unsealed, never
         valid. *)
      let truncation_sweep path ~ok =
        let original = read_file path in
        let len = String.length original in
        let rec sweep cut =
          if cut < len then begin
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub original 0 cut));
            expect_detected path (Printf.sprintf "truncation at %d" cut) (ok (fsck_status path));
            Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc original);
            sweep (cut + 97)
          end
        in
        sweep 0
      in
      truncation_sweep ckpt ~ok:(fun st -> st = A.Fsck.Corrupt);
      truncation_sweep ledger ~ok:(fun st -> st <> A.Fsck.Valid);
      (* JSON report truncation: everything short of removing only the
         trailing newline is detected. *)
      let original = read_file report in
      let rec sweep cut =
        if cut <= String.length original - 2 then begin
          Out_channel.with_open_bin report (fun oc ->
              Out_channel.output_string oc (String.sub original 0 cut));
          expect_detected report
            (Printf.sprintf "truncation at %d" cut)
            (fsck_status report = A.Fsck.Corrupt);
          Out_channel.with_open_bin report (fun oc -> Out_channel.output_string oc original);
          sweep (cut + 7)
        end
      in
      sweep 0;
      (* Torn rename: the staging file survived, flagged as a stray. *)
      let tmp = ckpt ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "partial");
      expect_detected tmp "torn rename staging file" (fsck_status tmp = A.Fsck.Stray);
      Sys.remove tmp;
      Alcotest.(check int)
        (Printf.sprintf "every seeded corruption detected (%d cases)" !seeded)
        !seeded !detected)

let test_fsck_repair_heals_the_tree () =
  with_temp_dir (fun dir ->
      let ckpt = Filename.concat dir "search.ckpt" in
      let ledger = Filename.concat dir "run.jsonl" in
      for n = 1 to 2 do
        Checkpoint.save ~keep:2 ~path:ckpt (sample_ck n)
      done;
      let full = sealed_ledger_bytes () in
      (* Torn ledger tail, corrupt primary generation, stray tmp. *)
      write_file ledger (String.sub full 0 (String.length full - 33));
      flip_bit_in_file ckpt 123;
      Out_channel.with_open_bin (ckpt ^ ".tmp") (fun oc -> Out_channel.output_string oc "x");
      let before = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "damage detected" false before.A.Fsck.clean;
      let repair = A.Fsck.scan ~repair:true [ dir ] in
      Alcotest.(check bool) "repair pass ends clean" true repair.A.Fsck.clean;
      Alcotest.(check int) "three repairs applied" 3 repair.A.Fsck.repaired;
      let after = A.Fsck.scan [ dir ] in
      Alcotest.(check bool) "re-scan is clean" true after.A.Fsck.clean;
      (* The repaired ledger is sealed and holds the clean prefix. *)
      (match A.Ledger.load ledger with
      | Ok t -> Alcotest.(check bool) "repaired ledger sealed" true t.A.Ledger.sealed
      | Error e -> Alcotest.fail (A.Ledger.error_to_string e));
      (* The pruned primary no longer hides the good generation. *)
      match Checkpoint.load_latest ckpt with
      | Ok (ck, _) -> Alcotest.(check int) "good generation loads" 1 ck.Checkpoint.iterations
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Composition: crash recovery under the 10 % fault-rate resume test   *)
(* ------------------------------------------------------------------ *)

let toy_target () =
  let space = ledger_space () in
  Target.make ~name:"toy" ~space ~metric:Metric.throughput (fun ~trial config ->
      ignore trial;
      match config.(0) with
      | Param.Vint x when x > 9 ->
        { Target.value = Error Failure.Runtime_crash; build_s = 10.; boot_s = 1.; run_s = 2.; objectives = [||] }
      | Param.Vint x ->
        let v = 100. -. float_of_int ((x - 7) * (x - 7)) in
        { Target.value = Ok v; build_s = 10.; boot_s = 1.; run_s = 5.; objectives = [||] }
      | _ -> { Target.value = Error (Failure.Other "invalid"); build_s = 0.; boot_s = 0.; run_s = 0.; objectives = [||] })

let frozen_obs () = Obs.Recorder.create ~now:(fun () -> 0.) ()

let faulty_run ?checkpoint_path ?checkpoint_keep ?resume_from ~seed ~iterations () =
  let plan = Faults.create ~rates:(Faults.rates_of_total 0.10) ~seed () in
  let target = Target.with_faults ~plan (toy_target ()) in
  Driver.run ~seed ~obs:(frozen_obs ()) ~resilience:Resilience.default_resilient
    ?checkpoint_path ~checkpoint_every:7 ?checkpoint_keep ?resume_from ~target
    ~algorithm:(Random_search.create ()) ~budget:(Driver.Iterations iterations) ()

let test_resume_from_fallback_generation_reproduces_run () =
  let full = faulty_run ~seed:11 ~iterations:20 () in
  let path = Filename.temp_file "wayfinder" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".1"; path ^ ".2" ])
    (fun () ->
      (* Kill mid-run with rotation on, then corrupt the primary the way
         a torn final write would. *)
      ignore (faulty_run ~checkpoint_path:path ~checkpoint_keep:3 ~seed:11 ~iterations:13 ());
      flip_bit_in_file path 200;
      match Checkpoint.load_latest path with
      | Error e -> Alcotest.fail (Checkpoint.error_to_string e)
      | Ok (ck, notice) ->
        Alcotest.(check bool) "recovery notice surfaced" true (notice <> None);
        let resumed = faulty_run ~resume_from:ck ~seed:11 ~iterations:20 () in
        Alcotest.(check string) "identical CSV from the fallback generation"
          (History.to_csv full.Driver.history)
          (History.to_csv resumed.Driver.history))

let () =
  Alcotest.run "durable"
    [ ( "crc32",
        [ Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          QCheck_alcotest.to_alcotest prop_crc_streaming;
          Alcotest.test_case "bitwise reference check value" `Quick
            test_crc_reference_check_value;
          QCheck_alcotest.to_alcotest prop_crc_matches_reference ] );
      ( "atomic-write",
        [ Alcotest.test_case "publishes durably" `Quick test_atomic_write_publishes;
          Alcotest.test_case "crash matrix: old or new, never torn" `Quick
            test_atomic_write_crash_matrix ] );
      ( "checkpoint",
        [ Alcotest.test_case "crash matrix with rotation" `Quick
            test_checkpoint_save_crash_matrix;
          Alcotest.test_case "generation rotation and fallback" `Quick
            test_checkpoint_generation_rotation;
          QCheck_alcotest.to_alcotest prop_checkpoint_crash_matrix ] );
      ( "writer",
        [ QCheck_alcotest.to_alcotest prop_writer_equals_one_shot;
          Alcotest.test_case "foreign history re-formats" `Quick
            test_writer_reformats_foreign_history;
          Alcotest.test_case "format known answer" `Quick test_writer_format_known_answer;
          Alcotest.test_case "allocation ratchet" `Quick test_writer_allocation_ratchet ] );
      ( "ledger",
        [ Alcotest.test_case "seal roundtrip" `Quick test_ledger_seal_roundtrip;
          Alcotest.test_case "torn-tail matrix: salvage at every cut" `Quick
            test_ledger_torn_tail_matrix;
          Alcotest.test_case "typed errors with positions" `Quick test_ledger_typed_errors ] );
      ( "fsck",
        [ Alcotest.test_case "detects 100% of seeded corruption" `Quick
            test_fsck_detects_all_seeded_corruption;
          Alcotest.test_case "repair heals the tree" `Quick test_fsck_repair_heals_the_tree ] );
      ( "composition",
        [ Alcotest.test_case "resume from fallback generation under 10% faults" `Quick
            test_resume_from_fallback_generation_reproduces_run ] ) ]
