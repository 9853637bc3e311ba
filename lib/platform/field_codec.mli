(** Field codecs of the line-oriented on-disk formats: {!Checkpoint}
    and the model {!Registry}.

    Each encoder yields text with no tab, CR or LF in it, and no space
    except in {!config_field}, so a record line can be split on those
    separators; its decoder reads the field back exactly.  The bytes
    these functions write are part of both formats: changing them
    changes every file on disk. *)

module Param = Wayfinder_configspace.Param

val float_field : float -> string
(** Round-trips every finite double bitwise. *)

val float_of_field : string -> (float, string) result
(** [Error] carries a message naming the bad field. *)

val encode_string : string -> string
(** Any string (user-supplied failure text, cache keys, space text) as
    a field, reversibly. *)

val decode_string : string -> string
(** The inverse of {!encode_string}.  Total: a malformed escape is kept
    verbatim. *)

val config_field : Param.value array -> string
(** The configuration's {!Param.value_token}s joined by single spaces;
    never empty. *)

val config_of_field : string -> (Param.value array, string) result
