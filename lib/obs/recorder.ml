type t = {
  now : unit -> float;
  mutable virtual_now : unit -> float;
  mutable sinks : Sink.t list;
  metrics : Metrics.t;
}

let create ?(now = Unix.gettimeofday) ?(virtual_now = fun () -> 0.) ?(sinks = []) () =
  (* Wall stamps are offsets from recorder creation, not epoch times:
     durations are unaffected and trace files stay readable. *)
  let epoch = now () in
  { now = (fun () -> now () -. epoch); virtual_now; sinks; metrics = Metrics.create () }

let null () = create ~now:(fun () -> 0.) ()

let set_virtual_now t f = t.virtual_now <- f

let metrics t = t.metrics
let snapshot t = Metrics.snapshot t.metrics

let stamp t = { Event.wall_s = t.now (); virtual_s = t.virtual_now () }

let emit t e = List.iter (fun s -> Sink.emit s e) t.sinks

let incr t ?(by = 1.) ?(quiet = false) name =
  Metrics.incr t.metrics ~by name;
  if (not quiet) && t.sinks <> [] then
    emit t (Event.Count { name; delta = by; at = stamp t })

let observe t ?(quiet = false) name value =
  Metrics.observe t.metrics name value;
  if (not quiet) && t.sinks <> [] then emit t (Event.Sample { name; value; at = stamp t })

let alert t ~rule message =
  Metrics.incr t.metrics ("alerts." ^ rule);
  if t.sinks <> [] then emit t (Event.Alert { rule; message; at = stamp t })

type span = { span_name : string; span_attrs : Attr.t; span_began : Event.stamp }

let span_begin t ?(attrs = Attr.empty) name =
  { span_name = name; span_attrs = attrs; span_began = stamp t }

let record_span t ~name ~attrs ~began ~wall ~vrt =
  (match wall with
  | Some w -> Metrics.observe t.metrics (name ^ ".wall_s") w
  | None -> ());
  (match vrt with
  | Some v -> Metrics.observe t.metrics (name ^ ".virtual_s") v
  | None -> ());
  if t.sinks <> [] then
    emit t
      (Event.Span
         { name;
           attrs;
           began;
           wall_duration_s = Option.value ~default:0. wall;
           virtual_duration_s = Option.value ~default:0. vrt })

let span_end t ?(attrs = Attr.empty) span =
  let ended = stamp t in
  let wall = ended.Event.wall_s -. span.span_began.Event.wall_s in
  let vrt = ended.Event.virtual_s -. span.span_began.Event.virtual_s in
  record_span t ~name:span.span_name ~attrs:(span.span_attrs @ attrs)
    ~began:span.span_began ~wall:(Some wall)
    ~vrt:(if vrt <> 0. then Some vrt else None)

let with_span t ?attrs name f =
  let span = span_begin t ?attrs name in
  match f () with
  | result ->
    span_end t span;
    result
  | exception exn ->
    span_end t ~attrs:[ Attr.bool "error" true ] span;
    raise exn

let timed t ?attrs name f =
  let span = span_begin t ?attrs name in
  match f () with
  | result ->
    let wall = t.now () -. span.span_began.Event.wall_s in
    span_end t span;
    (result, wall)
  | exception exn ->
    span_end t ~attrs:[ Attr.bool "error" true ] span;
    raise exn

let emit_span t ?(attrs = Attr.empty) ?wall_s ?virtual_s name =
  record_span t ~name ~attrs ~began:(stamp t) ~wall:wall_s ~vrt:virtual_s

let flush t = List.iter Sink.flush t.sinks
