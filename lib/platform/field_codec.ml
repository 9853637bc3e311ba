module Param = Wayfinder_configspace.Param

(* Hex float literals ("%h") round-trip every double exactly, so a
   resumed virtual clock is bit-identical to the interrupted one. *)
let float_field = Printf.sprintf "%h"

let float_of_field s =
  match float_of_string_opt s with Some f -> Ok f | None -> Error ("bad float " ^ s)

(* Percent-encode the characters the line formats reserve. *)
let encode_string s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' | '\t' | '\n' | '\r' | ' ' -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let decode_string s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> Buffer.add_string buf (String.sub s i 3));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* "." denotes the empty configuration so a config field is never an empty
   string (which a whitespace split could not distinguish).  The token
   codec is shared with the analytics run ledger. *)
let config_field config =
  if Array.length config = 0 then "."
  else String.concat " " (Array.to_list (Array.map Param.value_token config))

let config_of_field s =
  if s = "." then Ok [||]
  else
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | tok :: rest -> (
        match Param.value_of_token tok with
        | Some v -> go (v :: acc) rest
        | None -> Error ("bad value token " ^ tok))
    in
    go [] (String.split_on_char ' ' s)
