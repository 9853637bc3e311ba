module Param = Wayfinder_configspace.Param
module Space = Wayfinder_configspace.Space
module History = Wayfinder_platform.History
module Metric = Wayfinder_platform.Metric
module Failure = Wayfinder_platform.Failure
module Search_algorithm = Wayfinder_platform.Search_algorithm
module Crc32 = Wayfinder_platform.Crc32
module Obs = Wayfinder_obs

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

(* Line 1: the shared JSONL schema header ({!Obs.Sink.schema_header},
   kind "ledger").  Line 2: a meta record describing the run.  Every
   following line is one "iter" record, written in completion order.  A
   cleanly closed ledger ends with a "fin" seal — row count plus a
   CRC-32 over every preceding byte — so fsck can tell a complete file
   from a truncated or bit-flipped one; a ledger without the seal is
   still valid (a killed run is the normal case, not the exception). *)

let kind = "ledger"
let schema_version = Obs.Sink.schema_version

type error =
  | Missing_header
  | Unsupported_schema of int
  | Malformed of string

let error_to_string = function
  | Missing_header -> "not a wayfinder ledger: missing schema header line"
  | Unsupported_schema v ->
    Printf.sprintf "unsupported ledger schema version %d (this build reads version %d)" v
      schema_version
  | Malformed msg -> "malformed ledger: " ^ msg

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  index : int;
  tokens : string array;
  value : float option;
  failure : Failure.t option;
  at_seconds : float;
  eval_seconds : float;
  built : bool;
  decide_seconds : float;
  belief : Search_algorithm.belief option;
  objectives : float array option;
}

type meta = {
  algo : string;
  metric : Metric.t;
  seed : int option;
  params : (string * Param.stage) list;
  objectives : Metric.t list;
      (** Objective spec of a multi-objective run; [[]] for scalar runs.
          Additive: scalar ledgers never emit the key, so their bytes
          are unchanged and old readers (which ignore unknown keys) can
          still consume multi-objective files. *)
}

type t = { meta : meta; rows : row list; sealed : bool }

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let opt_num = function Some v -> Json.Num v | None -> Json.Null
let opt_str = function Some s -> Json.Str s | None -> Json.Null

let objective_json (m : Metric.t) =
  Json.Obj
    [ ("name", Json.Str m.Metric.metric_name);
      ("unit", Json.Str m.Metric.unit_name);
      ("maximize", Json.Bool m.Metric.maximize) ]

let meta_json m =
  Json.Obj
    ([ ("type", Json.Str "meta");
      ("algo", Json.Str m.algo);
      ("metric", Json.Str m.metric.Metric.metric_name);
      ("unit", Json.Str m.metric.Metric.unit_name);
      ("maximize", Json.Bool m.metric.Metric.maximize);
      ("seed", (match m.seed with Some s -> Json.Num (float_of_int s) | None -> Json.Null));
      ( "params",
        Json.List
          (List.map
             (fun (name, stage) ->
               Json.Obj
                 [ ("name", Json.Str name);
                   ("stage", Json.Str (Param.stage_to_string stage)) ])
             m.params) ) ]
    @
    (* Appended only when present, keeping scalar meta lines byte-stable. *)
    match m.objectives with
    | [] -> []
    | objectives -> [ ("objectives", Json.List (List.map objective_json objectives)) ])

let belief_json (b : Search_algorithm.belief) =
  Json.Obj
    [ ("crash_p", opt_num b.Search_algorithm.crash_probability);
      ("value", opt_num b.Search_algorithm.predicted_value);
      ("sigma", opt_num b.Search_algorithm.predicted_uncertainty);
      ("source", Json.Str b.Search_algorithm.belief_source) ]

let row_json r =
  Json.Obj
    ([ ("type", Json.Str "iter");
      ("i", Json.Num (float_of_int r.index));
      ("config", Json.List (Array.to_list (Array.map (fun t -> Json.Str t) r.tokens)));
      ("value", opt_num r.value);
      ("failure", opt_str (Option.map Failure.to_string r.failure));
      ( "failure_class",
        opt_str (Option.map (fun f -> Failure.klass_to_string (Failure.klass f)) r.failure) );
      ("at_s", Json.Num r.at_seconds);
      ("eval_s", Json.Num r.eval_seconds);
      ("built", Json.Bool r.built);
      ("decide_s", Json.Num r.decide_seconds);
      ("belief", (match r.belief with Some b -> belief_json b | None -> Json.Null)) ]
    @
    match r.objectives with
    | None -> []
    | Some v ->
      [ ("obj", Json.List (Array.to_list (Array.map (fun x -> Json.Num x) v))) ])

let row_of_entry (e : History.entry) belief =
  { index = e.History.index;
    tokens = Array.map Param.value_token e.History.config;
    value = e.History.value;
    failure = e.History.failure;
    at_seconds = e.History.at_seconds;
    eval_seconds = e.History.eval_seconds;
    built = e.History.built;
    decide_seconds = e.History.decide_seconds;
    belief;
    objectives = e.History.objectives }

let fin_json ~rows ~crc =
  Json.Obj
    [ ("type", Json.Str "fin");
      ("rows", Json.Num (float_of_int rows));
      ("crc", Json.Str (Crc32.to_hex crc)) ]

type writer = {
  oc : out_channel;
  mutable closed : bool;
  (* Streaming CRC-32 of every byte written so far (newlines included):
     the seal is computed without re-reading the file. *)
  mutable crc : Crc32.t;
  mutable rows : int;
}

let emit w s =
  output_string w.oc s;
  w.crc <- Crc32.update w.crc s

let create_writer ?seed ?(objectives = []) ~algo ~space ~metric path =
  let oc = open_out path in
  let w = { oc; closed = false; crc = Crc32.init; rows = 0 } in
  emit w (Obs.Sink.schema_header ~kind);
  emit w "\n";
  let params =
    Array.to_list
      (Array.map (fun (p : Param.t) -> (p.Param.name, p.Param.stage)) (Space.params space))
  in
  emit w (Json.to_string (meta_json { algo; metric; seed; params; objectives }));
  emit w "\n";
  w

let record w (e : History.entry) belief =
  if w.closed then invalid_arg "Ledger.record: writer is closed";
  emit w (Json.to_string (row_json (row_of_entry e belief)));
  emit w "\n";
  w.rows <- w.rows + 1;
  (* A ledger is a liveness artifact — a crashed run should still leave
     every completed iteration on disk. *)
  flush w.oc

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    (* Seal: a reader (or fsck) can now distinguish "cleanly closed"
       from "truncated" and detect any bit flip in the body. *)
    output_string w.oc
      (Json.to_string (fin_json ~rows:w.rows ~crc:(Crc32.finish w.crc)));
    output_char w.oc '\n';
    close_out w.oc
  end

let with_writer ?seed ?objectives ~algo ~space ~metric path f =
  let w = create_writer ?seed ?objectives ~algo ~space ~metric path in
  Fun.protect ~finally:(fun () -> close_writer w) (fun () -> f w)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let req what = function Some v -> Ok v | None -> Error (Malformed ("missing or ill-typed " ^ what))

let parse_header line =
  match Json.parse line with
  | Error _ -> Error Missing_header  (* Line 1 is not even JSON — not a header. *)
  | Ok j -> (
    match Option.bind (Json.member "wayfinder_schema" j) Json.to_int with
    | None -> Error Missing_header
    | Some v when v <> schema_version -> Error (Unsupported_schema v)
    | Some _ -> (
      match Option.bind (Json.member "kind" j) Json.to_str with
      | Some k when k = kind -> Ok ()
      | Some k -> Error (Malformed (Printf.sprintf "kind %S is not a ledger" k))
      | None -> Error (Malformed "header has no kind")))

let parse_meta ~offset line =
  let fail reason = Error (Malformed (Printf.sprintf "line 2 (byte %d): %s" offset reason)) in
  match Json.parse line with
  | Error msg -> fail ("meta: " ^ msg)
  | Ok j ->
    let* () =
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "meta" -> Ok ()
      | Some _ | None -> fail "second line is not a meta record"
    in
    let* algo = req "meta.algo" (Option.bind (Json.member "algo" j) Json.to_str) in
    let* name = req "meta.metric" (Option.bind (Json.member "metric" j) Json.to_str) in
    let* unit_name = req "meta.unit" (Option.bind (Json.member "unit" j) Json.to_str) in
    let* maximize = req "meta.maximize" (Option.bind (Json.member "maximize" j) Json.to_bool) in
    let seed = Option.bind (Json.member "seed" j) Json.to_int in
    let* params = req "meta.params" (Option.bind (Json.member "params" j) Json.to_list) in
    let* params =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          let* name = req "param.name" (Option.bind (Json.member "name" p) Json.to_str) in
          let* stage_s = req "param.stage" (Option.bind (Json.member "stage" p) Json.to_str) in
          let* stage =
            match Param.stage_of_string stage_s with
            | Some s -> Ok s
            | None -> Error (Malformed (Printf.sprintf "unknown stage %S" stage_s))
          in
          Ok ((name, stage) :: acc))
        (Ok []) params
    in
    let* objectives =
      match Json.member "objectives" j with
      | None -> Ok []
      | Some l ->
        let* items = req "meta.objectives" (Json.to_list l) in
        let* objectives =
          List.fold_left
            (fun acc o ->
              let* acc = acc in
              let* name = req "objective.name" (Option.bind (Json.member "name" o) Json.to_str) in
              let* unit_name =
                req "objective.unit" (Option.bind (Json.member "unit" o) Json.to_str)
              in
              let* maximize =
                req "objective.maximize" (Option.bind (Json.member "maximize" o) Json.to_bool)
              in
              Ok (Metric.make ~maximize ~name ~unit_name () :: acc))
            (Ok []) items
        in
        Ok (List.rev objectives)
    in
    Ok
      { algo;
        metric = Metric.make ~maximize ~name ~unit_name ();
        seed;
        params = List.rev params;
        objectives }

let parse_belief = function
  | Json.Null -> Ok None
  | j ->
    let* source = req "belief.source" (Option.bind (Json.member "source" j) Json.to_str) in
    Ok
      (Some
         { Search_algorithm.crash_probability =
             Option.bind (Json.member "crash_p" j) Json.to_float;
           predicted_value = Option.bind (Json.member "value" j) Json.to_float;
           predicted_uncertainty = Option.bind (Json.member "sigma" j) Json.to_float;
           belief_source = source })

(* Parse one iter record; reasons carry no position — the caller anchors
   them to its line number and byte offset. *)
let parse_row j =
  let* () =
      match Option.bind (Json.member "type" j) Json.to_str with
      | Some "iter" -> Ok ()
      | Some _ | None -> Error (Malformed "not an iter record")
    in
    let* index = req "i" (Option.bind (Json.member "i" j) Json.to_int) in
    let* config = req "config" (Option.bind (Json.member "config" j) Json.to_list) in
    let* tokens =
      List.fold_left
        (fun acc t ->
          let* acc = acc in
          let* s = req "config token" (Json.to_str t) in
          Ok (s :: acc))
        (Ok []) config
    in
    let tokens = Array.of_list (List.rev tokens) in
    let value = Option.bind (Json.member "value" j) Json.to_float in
    let failure =
      Option.map Failure.of_string (Option.bind (Json.member "failure" j) Json.to_str)
    in
    let* at_seconds = req "at_s" (Option.bind (Json.member "at_s" j) Json.to_float) in
    let* eval_seconds = req "eval_s" (Option.bind (Json.member "eval_s" j) Json.to_float) in
    let* built = req "built" (Option.bind (Json.member "built" j) Json.to_bool) in
    let* decide_seconds =
      req "decide_s" (Option.bind (Json.member "decide_s" j) Json.to_float)
    in
    let* belief =
      parse_belief (Option.value ~default:Json.Null (Json.member "belief" j))
    in
    let* objectives =
      match Json.member "obj" j with
      | None -> Ok None
      | Some l ->
        let* items = req "obj" (Json.to_list l) in
        let* vs =
          List.fold_left
            (fun acc x ->
              let* acc = acc in
              let* v = req "obj component" (Json.to_float x) in
              Ok (v :: acc))
            (Ok []) items
        in
        Ok (Some (Array.of_list (List.rev vs)))
    in
    Ok
      { index;
        tokens;
        value;
        failure;
        at_seconds;
        eval_seconds;
        built;
        decide_seconds;
        belief;
        objectives }

type drop = { line : int; offset : int; reason : string }

type salvage = {
  ledger : t;
  dropped : drop list;
  clean_prefix_rows : int;
  clean_prefix_bytes : int;
}

(* The one ledger reader: the whole-file readers fold it over a file and
   Monitor.Tail feeds it each line a growing file completes.  It tracks
   the byte offset and a streaming CRC so (a) every drop names the exact
   line and byte where parsing stopped, (b) the fin seal is verified
   against the bytes actually read, and (c) salvage knows where the clean
   prefix ends.  Bad body lines become drops; header/meta damage is
   fatal, since without the meta record the rows cannot be interpreted. *)
module Reader = struct
  type stage = Expect_header | Expect_meta | Rows

  type t = {
    mutable stage : stage;
    mutable offset : int;
    mutable lineno : int;
    (* Streaming CRC over every consumed line (newline included); [None]
       when resumed mid-file, where a seal's CRC cannot be checked. *)
    mutable crc : Crc32.t option;
    mutable meta : meta option;
    mutable rows : int;
    mutable drops : int;
    mutable sealed : bool;
    (* Rows and bytes strictly before the first drop or the fin line —
       the portion a repair keeps (and re-seals). *)
    mutable prefix_end : (int * int) option;
  }

  type item = Row of row | Drop of drop | Skip

  let create () =
    { stage = Expect_header; offset = 0; lineno = 1; crc = Some Crc32.init; meta = None;
      rows = 0; drops = 0; sealed = false; prefix_end = None }

  let resume ?(rows_read = 0) ~offset meta =
    { (create ()) with stage = Rows; offset; crc = None; meta = Some meta; rows = rows_read }

  let meta t = t.meta
  let sealed t = t.sealed
  let checks_crc t = t.crc <> None
  let offset t = t.offset
  let rows t = t.rows
  let drops t = t.drops

  let clean_prefix t = match t.prefix_end with Some p -> p | None -> (t.rows, t.offset)

  let mark_prefix t = if t.prefix_end = None then t.prefix_end <- Some (t.rows, t.offset)

  let drop t reason =
    mark_prefix t;
    t.drops <- t.drops + 1;
    Drop { line = t.lineno; offset = t.offset; reason }

  let fin t j =
    let stored_rows = Option.bind (Json.member "rows" j) Json.to_int in
    let stored_crc = Option.bind (Option.bind (Json.member "crc" j) Json.to_str) Crc32.of_hex in
    match (stored_rows, stored_crc) with
    | None, _ | _, None -> drop t "fin seal is missing rows or crc"
    | Some r, Some _ when r <> t.rows ->
      drop t (Printf.sprintf "fin seal claims %d rows but %d were read (truncated body?)" r t.rows)
    | Some _, Some c -> (
      match Option.map Crc32.finish t.crc with
      | Some computed when c <> computed ->
        drop t
          (Printf.sprintf "fin seal crc mismatch (stored %s, computed %s)" (Crc32.to_hex c)
             (Crc32.to_hex computed))
      | Some _ | None ->
        mark_prefix t;
        t.sealed <- true;
        Skip)

  let body t line =
    if String.trim line = "" then Ok Skip
    else if t.sealed then Ok (drop t "content after fin seal")
    else
      match Json.parse line with
      | Error msg -> Ok (drop t msg)
      | Ok j -> (
        match Option.bind (Json.member "type" j) Json.to_str with
        | Some "fin" -> Ok (fin t j)
        | _ -> (
          match parse_row j with
          | Ok row ->
            t.rows <- t.rows + 1;
            Ok (Row row)
          | Error (Malformed reason) -> Ok (drop t reason)
          | Error e -> Error e))

  (* A fatal error leaves the reader where it was, so a caller polling a
     growing file re-reads the same line (and fails the same way). *)
  let read t ~newline line =
    let* item =
      match t.stage with
      | Expect_header ->
        let* () = parse_header line in
        t.stage <- Expect_meta;
        Ok Skip
      | Expect_meta ->
        let* meta = parse_meta ~offset:t.offset line in
        t.meta <- Some meta;
        t.stage <- Rows;
        Ok Skip
      | Rows -> body t line
    in
    let nl = if newline then "\n" else "" in
    t.crc <- Option.map (fun c -> Crc32.update (Crc32.update c line) nl) t.crc;
    t.offset <- t.offset + String.length line + String.length nl;
    t.lineno <- t.lineno + 1;
    Ok item

  let feed t line = read t ~newline:true line

  let finish t rest =
    let* item = if rest = "" && t.stage = Rows then Ok Skip else read t ~newline:false rest in
    match t.stage with
    | Rows -> Ok item
    | Expect_header | Expect_meta ->
      (* Only an unterminated header gets here; line 2 would start one
         byte past it. *)
      Error
        (Malformed
           (Printf.sprintf "line 2 (byte %d): ledger has no meta record (truncated after header)"
              (t.offset + 1)))
end

(* Fold the reader over [lines], the input split at every newline: all
   but the last element were newline-terminated. *)
let salvage_lines lines =
  let r = Reader.create () in
  let rows = ref [] and drops = ref [] in
  let collect = function
    | Reader.Row row -> rows := row :: !rows
    | Reader.Drop d -> drops := d :: !drops
    | Reader.Skip -> ()
  in
  let rec go = function
    | [] -> Reader.finish r ""
    | [ rest ] -> Reader.finish r rest
    | line :: more ->
      let* item = Reader.feed r line in
      collect item;
      go more
  in
  let* last = go lines in
  collect last;
  let clean_prefix_rows, clean_prefix_bytes = Reader.clean_prefix r in
  Ok
    { ledger =
        { meta = Option.get (Reader.meta r); rows = List.rev !rows; sealed = Reader.sealed r };
      dropped = List.rev !drops;
      clean_prefix_rows;
      clean_prefix_bytes }

(* The strict reader: a healthy file is one the salvage reader drops
   nothing from. *)
let of_lines lines =
  let* s = salvage_lines lines in
  match s.dropped with
  | [] -> Ok s.ledger
  | d :: _ -> Error (Malformed (Printf.sprintf "line %d (byte %d): %s" d.line d.offset d.reason))

let of_string s =
  of_lines (String.split_on_char '\n' s)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error (Malformed msg)

let salvage_string s = salvage_lines (String.split_on_char '\n' s)

let salvage path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> salvage_string contents
  | exception Sys_error msg -> Error (Malformed msg)

let repair_string s =
  let* r = salvage_string s in
  let prefix = String.sub s 0 r.clean_prefix_bytes in
  let prefix =
    if prefix = "" || prefix.[String.length prefix - 1] = '\n' then prefix else prefix ^ "\n"
  in
  let fin =
    Json.to_string (fin_json ~rows:r.clean_prefix_rows ~crc:(Crc32.digest prefix))
  in
  Ok (prefix ^ fin ^ "\n", r)
