(** Driver checkpoints: kill a search, resume it, get the same answer.

    A checkpoint captures everything the driver needs to continue a search
    as if it had never stopped: the exploration history (every entry,
    configs included), the virtual clock, the budget origin, the RNG
    state, the invalid-proposal streak, the quarantine bookkeeping, the
    tasks that were still {e in flight} on the multi-worker engine's
    virtual evaluation slots when the file was written (since format
    version 2) — and, since format version 3, the shared
    {!Image_cache} contents {e and recency order}, so a killed
    [~workers:n] run resumes mid-batch with the exact warm cache it held
    and reproduces the uninterrupted trajectory exactly.

    Search-algorithm state (DeepTune's network, a GP's observations) is
    deliberately {e not} serialized.  Resume instead {e replays}: the
    algorithm is recreated from the same seed and fed the recorded history
    through its normal [propose]/[observe] path, skipping only the
    (expensive) target evaluations — on a real testbed those are hours of
    VM time; everything else is deterministic, so the rebuilt state is
    bit-identical to the moment the checkpoint was written.  The stored
    RNG state and the replayed proposals double as integrity checks: a
    resume under different flags, seed or code fails loudly instead of
    silently diverging.

    The on-disk format is a versioned line-oriented text file; floats are
    hex literals ([%h]) so every double round-trips exactly.  The file is
    a {e sealed envelope}: the versioned body followed by a mandatory
    CRC-32 trailer line over the body bytes, so truncations and bit flips
    are rejected with a typed {!Malformed} instead of being misparsed.
    Writes go through {!Durable}: tmp-write + fsync + rename +
    directory-fsync, with optional {e generation rotation}
    ([path], [path.1], …) so a corrupt or torn primary falls back to the
    newest older generation that validates ({!load_latest}) instead of
    killing the resume.  Files written by other format versions are
    rejected with {!Unsupported_version} — never an exception. *)

module Space = Wayfinder_configspace.Space

type inflight = {
  index : int;  (** Proposal sequence number (equals [entry.index]). *)
  slot : int;  (** The virtual evaluation slot the task occupies. *)
  start_seconds : float;  (** Clock reading when the task was launched. *)
  entry : History.entry;
      (** The task's precomputed outcome; [entry.at_seconds] is its
          (future) completion time.  Evaluation is a pure function of
          (trial, configuration), so the driver computes the whole
          outcome at launch and only reveals it at completion — which is
          what lets an interrupted task be persisted at all. *)
}

type t = {
  seed : int;
  rng_state : int64;  (** Driver RNG state at checkpoint time (verification). *)
  clock_seconds : float;
      (** Virtual clock reading (finite).  A resume re-runs the recorded
          timeline and does not read it; it is informational (the CLI's
          resume message). *)
  budget_start_seconds : float;  (** Clock reading when the run started (finite). *)
  iterations : int;  (** Completed (recorded) evaluations. *)
  workers : int;  (** Virtual evaluation slots of the writing run. *)
  consecutive_invalid : int;  (** Non-negative. *)
  cache_capacity : int;  (** Image-cache capacity of the writing run. *)
  cache : (string * Image_cache.entry) list;
      (** Shared image-cache contents in recency order, most recently used
          first (exactly {!Image_cache.to_alist}); at most
          [cache_capacity] bindings with distinct keys, each built by a
          slot below [workers]. *)
  strikes : (string * int) list;
      (** Canonical config key ({!Param.config_key}) → exhausted-retry
          episodes (non-negative), sorted by key. *)
  quarantined : string list;  (** Quarantined canonical config keys, sorted. *)
  entries : History.entry list;  (** Completion order, oldest first. *)
  inflight : inflight list;  (** Launched but not yet completed tasks. *)
  pareto : (int * float array) list;
      (** Pareto archive of a multi-objective run: [(entry index, raw
          objective vector)] sorted by index (exactly
          {!Pareto.to_list}); empty for scalar runs. *)
  trace_cursor : int option;
      (** Scenario trace position ({!Scenario.cursor}) at checkpoint
          time; [None] when the run had no scenario. *)
}

type error =
  | Unsupported_version of { found : int; expected : int }
      (** The file is a wayfinder checkpoint, but written by a different
          format version. *)
  | Malformed of string  (** Unreadable file or corrupt content. *)

val error_to_string : error -> string

val version : int
(** Current format version: 5.  Files written by earlier versions are
    rejected with {!Unsupported_version} (v2 persisted per-slot baseline
    images instead of the shared cache; v3 keyed quarantine strikes on
    the truncated polymorphic hash, which conflated configurations
    differing past the ~10th parameter; v4 predates objective vectors,
    the Pareto archive and the scenario trace cursor, all of which v5
    entry lines and body fields carry). *)

val to_string : t -> string
(** The sealed envelope: the versioned body plus the CRC-32 trailer
    line.  The one-shot case of {!Writer}: a fresh writer's output. *)

val of_string : string -> (t, error) result
(** Verifies the CRC trailer before parsing; a file without one (torn
    write, truncation at the trailer) is {!Malformed}. *)

val generation_path : string -> int -> string
(** [generation_path path 0 = path]; [generation_path path i] is
    ["path.i"] for [i >= 1]. *)

val max_generations : int
(** The probe window of {!load_latest}: 64. *)

val save : ?backend:Durable.backend -> ?keep:int -> path:string -> t -> unit
(** Durable atomic publish via [backend] (default {!Durable.fs}): stage
    to [path ^ ".tmp"], fsync, rotate generations when [keep > 1]
    ([path] → [path.1] → … up to [path.(keep-1)]), rename into place,
    fsync the directory.  A crash at any boundary leaves a complete
    generation loadable by {!load_latest}; a failed write removes the
    staging file and leaves every existing generation untouched.
    @raise Durable.Io_error on I/O failure (after cleanup).
    @raise Invalid_argument if [keep < 1].  A run that saves repeatedly
    holds a {!Writer} instead. *)

(** Incremental serialization for a run that saves repeatedly.

    A run's checkpoints differ from one save to the next mostly by the
    entry lines appended since the previous one; everything else (clock,
    RNG, cache, quarantine, Pareto archive, in-flight tasks) is a small
    header and suffix.  A writer formats each [entry] line {e once} and
    keeps it as an immutable string, so a save formats only the new
    entries, then streams the CRC over header, kept lines and suffix and
    hands those pieces to {!Durable.atomic_publish}, which writes them
    in order without ever concatenating them.  Formatting cost per save
    is O(entries added since the last save); the CRC and the write are
    still O(file size), at memory and disk speed.

    {b Contract.}  The bytes a writer produces are always exactly
    {!to_string} of the record it is given.  The writer memoizes the
    entries it has formatted and reuses their lines only while the
    record's [entries] begin with those same entries, compared by
    physical equality ([==]).  Any other record (a shorter history, a
    different run, rebuilt entry values) makes it re-format everything,
    which costs time, never correctness.  Entries must not be mutated
    in place after they have been saved (their [config] and
    [objectives] arrays included); nothing in the platform does. *)
module Writer : sig
  type checkpoint := t
  type t

  type stats = {
    bytes : int;  (** Size of the published file. *)
    appended : int;  (** Entry lines formatted by this save. *)
  }

  val create : unit -> t
  (** A writer with nothing memoized: its first save formats every entry. *)

  val to_string : t -> checkpoint -> string
  (** The sealed envelope of the record, byte-identical to {!to_string}. *)

  val save :
    t -> ?backend:Durable.backend -> ?keep:int -> path:string -> checkpoint -> stats
  (** {!save} through the writer's memo. *)
end

val load : path:string -> (t, error) result
(** {!load_from} on the real filesystem. *)

val load_from : backend:Durable.backend -> path:string -> (t, error) result

type notice =
  | Recovered_from_generation of {
      generation : int;  (** The generation that validated (1 = [path.1] …). *)
      loaded_from : string;
      dropped : (string * error) list;
          (** Newer generations that exist but failed validation, newest
              first — the evidence for the fallback. *)
    }
      (** Surfaced by {!load_latest} when the primary did not load
          cleanly; [wayfinder run --resume] prints it instead of dying
          on a corrupt primary. *)

val notice_to_string : notice -> string

val load_latest :
  ?backend:Durable.backend -> string -> (t * notice option, error) result
(** Load the newest generation that validates: tries [path], then
    [path.1], [path.2], … within {!max_generations}.  [None] notice
    means the primary loaded cleanly.  [Error] carries the {e primary}'s
    error when every generation is corrupt, or {!Malformed} when no
    generation exists at all. *)
