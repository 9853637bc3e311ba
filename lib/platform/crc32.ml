type t = int32

(* Reflected polynomial 0xEDB88320, sliced by 8: [table.(i)] is the CRC
   of the single byte i, and [table.((k * 256) + i)] advances that by k
   zero bytes, so eight table reads fold in eight input bytes at once.
   Native ints throughout, so the loop never boxes. *)
let table =
  let t = Array.make 2048 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let init = 0xFFFFFFFFl
let[@inline] byte s i = Char.code (String.unsafe_get s i)
let[@inline] tab i = Array.unsafe_get table i

(* The state lives in the low 32 bits of an unboxed int for the whole
   loop; only the boundary converts to and from [int32].  The mask on
   entry is what keeps [c lsr 24] below 256, so every unchecked table
   read stays in bounds. *)
let update state s =
  let n = String.length s in
  let crc = ref (Int32.to_int state land 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 8 <= n do
    let p = !i in
    let c = !crc in
    crc :=
      tab (0x700 + ((c lxor byte s p) land 0xFF))
      lxor tab (0x600 + (((c lsr 8) lxor byte s (p + 1)) land 0xFF))
      lxor tab (0x500 + (((c lsr 16) lxor byte s (p + 2)) land 0xFF))
      lxor tab (0x400 + ((c lsr 24) lxor byte s (p + 3)))
      lxor tab (0x300 + byte s (p + 4))
      lxor tab (0x200 + byte s (p + 5))
      lxor tab (0x100 + byte s (p + 6))
      lxor tab (byte s (p + 7));
    i := p + 8
  done;
  for p = !i to n - 1 do
    crc := tab ((!crc lxor byte s p) land 0xFF) lxor (!crc lsr 8)
  done;
  Int32.of_int !crc

let finish state = Int32.logxor state 0xFFFFFFFFl
let digest s = finish (update init s)
let to_hex v = Printf.sprintf "%08lx" v

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* [Int32.of_string] alone would also take '_' separators and signs, so
   the digits are checked first. *)
let of_hex s =
  if String.length s = 8 && String.for_all is_hex_digit s then Int32.of_string_opt ("0x" ^ s)
  else None
