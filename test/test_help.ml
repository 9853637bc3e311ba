(* Every subcommand's manual renders cleanly.

   Cmdliner parses doc strings lazily, when a manual is printed: a bad
   markup escape (such as a backslash before a character that needs none)
   only shows up as a "cmdliner error" line on stderr at [--help] time,
   and the build never sees it.  This test walks the command tree from the
   top-level COMMANDS section and renders [--help=plain] for each node. *)

let wayfinder = Filename.concat (Filename.concat ".." "bin") "wayfinder.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [--help=plain] output (stdout and stderr together) and exit code. *)
let help path =
  let out = Filename.temp_file "wayfinder_help" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let cmd =
        String.concat " "
          (List.map Filename.quote ((wayfinder :: path) @ [ "--help=plain" ]))
        ^ " > " ^ Filename.quote out ^ " 2>&1"
      in
      let code = Sys.command cmd in
      (code, read_file out))

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Names listed in the manual's COMMANDS section: entries are indented by
   seven spaces, their descriptions by more. *)
let subcommands text =
  let lines = String.split_on_char '\n' text in
  let rec skip_to = function
    | [] -> []
    | "COMMANDS" :: rest -> rest
    | _ :: rest -> skip_to rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | line :: rest ->
      if line <> "" && line.[0] <> ' ' then List.rev acc
      else if String.length line > 7 && String.sub line 0 7 = "       " && line.[7] <> ' '
      then
        let word = List.hd (String.split_on_char ' ' (String.sub line 7 (String.length line - 7))) in
        take (word :: acc) rest
      else take acc rest
  in
  take [] (skip_to lines)

let rec walk path =
  let code, text = help path in
  let name = String.concat " " ("wayfinder" :: path) in
  Alcotest.(check int) (name ^ " --help exits 0") 0 code;
  if contains ~sub:"cmdliner error" text then
    Alcotest.failf "%s --help=plain reports a doc error:\n%s" name text;
  1 + List.fold_left (fun n sub -> n + walk (path @ [ sub ])) 0 (subcommands text)

let test_all_manuals_render () =
  let rendered = walk [] in
  (* The root, its subcommands, and the nested [models] group at least. *)
  Alcotest.(check bool)
    (Printf.sprintf "walked %d manuals" rendered)
    true (rendered >= 10)

let () =
  Alcotest.run "help"
    [ ("help", [ Alcotest.test_case "every --help=plain renders" `Quick test_all_manuals_render ]) ]
