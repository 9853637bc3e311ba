module A = Wayfinder_analytics
module Reader = A.Ledger.Reader

(* Follow-mode ledger reader.  Each {!step} reopens the file, seeks to
   the first unconsumed byte and feeds every newly-completed line to the
   ledger's own incremental {!Reader} — a line is consumed only once its
   terminating '\n' is on disk, so a writer killed mid-record never
   yields a half-parsed row (it stays pending until the file grows past
   it or forever).  The reader applies the salvage discipline of
   {!A.Ledger}: bad lines become positioned drops, never crashes; only
   header/meta damage is fatal. *)

type seal =
  | Unsealed
  | Sealed
  | Sealed_unverified

type t = { path : string; mutable reader : Reader.t }

type step = {
  rows : A.Ledger.row list;
  drops : A.Ledger.drop list;
  truncated : bool;
}

let create path = { path; reader = Reader.create () }

let resume ?rows_read ~path ~offset ~meta () =
  { path; reader = Reader.resume ?rows_read ~offset meta }

let meta t = Reader.meta t.reader
let offset t = Reader.offset t.reader
let rows_read t = Reader.rows t.reader
let dropped t = Reader.drops t.reader

let seal t =
  if not (Reader.sealed t.reader) then Unsealed
  else if Reader.checks_crc t.reader then Sealed
  else Sealed_unverified

let ( let* ) = Result.bind

let step t =
  match
    let ic = open_in_bin t.path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let truncated = size < offset t in
        if truncated then t.reader <- Reader.create ();
        seek_in ic (offset t);
        let chunk = really_input_string ic (size - offset t) in
        (truncated, chunk))
  with
  | exception Sys_error msg -> Error (A.Ledger.Malformed msg)
  | truncated, chunk ->
    (* Only lines whose '\n' is present are consumed; the final
       newline-less fragment stays on disk for the next poll. *)
    let rec go rows drops from =
      match String.index_from_opt chunk from '\n' with
      | None -> Ok { rows = List.rev rows; drops = List.rev drops; truncated }
      | Some nl -> (
        let* item = Reader.feed t.reader (String.sub chunk from (nl - from)) in
        match item with
        | Reader.Row r -> go (r :: rows) drops (nl + 1)
        | Reader.Drop d -> go rows (d :: drops) (nl + 1)
        | Reader.Skip -> go rows drops (nl + 1))
    in
    go [] [] 0
