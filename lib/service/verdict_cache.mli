(** The persistent verdict cache: an append-only, per-record CRC-framed
    file mapping (canonical program, machine, model, engine version) to a
    finished verdict.

    Robustness contract: a torn tail (the writer was killed mid-append)
    or a corrupted record (bit rot, a concurrent writer's garbage) can
    only ever degrade to a {e recompute} — never to a wrong or stale
    verdict.  Every record carries its own CRC-32, validated before the
    payload is decoded; an invalid record is skipped and counted, and the
    reader resynchronizes on the next record magic.

    The cache key includes {!engine_version}: bumping it (any change to
    machine semantics, the generator mapping, or the verdict payload
    shape) orphans every old record wholesale instead of serving stale
    verdicts.  Keys use the canonical program {e text} (the printed
    litmus source minus the name line), so the same program reached via a
    file, a builtin, or a generator seed shares one cache slot. *)

type verdict = {
  v_outcomes : string list;  (** printed finals, in {!Final.Set} order *)
  v_appears_sc : bool;
      (** the machine's outcome set equals the SC reference set *)
  v_obeys_model : bool;
      (** the program meets its synchronization-model obligation *)
  v_allows_exists : bool option;
      (** whether the program's [exists] clause is reachable ([None]
          when it has no such clause) *)
  v_violation : bool;  (** [v_obeys_model] and not [v_appears_sc] *)
  v_states : int;  (** machine states expanded when first computed *)
  v_complete : bool;  (** the machine sweep was exhaustive *)
  v_spilled_runs : int;
      (** visited-set runs the sweep spilled to disk ([0] without a
          memory budget) *)
}

val engine_version : string
(** Part of every key.  Bump on any change that can alter a verdict for
    the same program text: machine semantics, SC enumeration, generator
    mapping, or this record type. *)

val canonical_text : Prog.t -> string
(** The name-independent canonical program rendering hashed into keys. *)

val key : prog:Prog.t -> machine:string -> model:string -> string
(** The cache key: canonical-program digest + machine + model +
    {!engine_version}. *)

val sym_key : prog:Prog.t -> machine:string -> model:string -> string
(** The symmetry-dedup key: like {!key} but digesting the
    orbit-canonical rendering ({!Prog_canon.text}), so every program in
    one processor/location/register-renaming class shares the slot.
    Verdict fields are renaming-invariant except [v_outcomes], whose
    strings mention the {e first} class member's names — consumers that
    only count outcomes (the batch JSONL) are unaffected. *)

type t
(** An open cache: the in-memory index plus, for {!open_file} caches,
    the append-only backing file. *)

val in_memory : unit -> t
(** A cache with no backing file (a [--no-cache] run still counts
    intra-batch hits). *)

val open_file : string -> t
(** Load [path] (tolerating missing files, torn tails and corrupt
    records — each invalid record is counted and skipped) and open it
    for appending.
    @raise Sys_error when the directory is unwritable. *)

val frame : string -> verdict -> string
(** The on-disk framing of one (key, verdict) record — exposed so tests
    can fabricate torn and corrupted records. *)

val find : t -> string -> verdict option
(** Lookup by {!key}; every call counts as a hit or a miss. *)

val add : t -> string -> verdict -> unit
(** Record a verdict: registered in memory and appended (CRC-framed,
    flushed) to the backing file when there is one.  Re-adding an
    existing key is a no-op — first verdict wins. *)

type stats = {
  entries : int;  (** live entries in memory *)
  loaded : int;  (** valid records read from the backing file at open *)
  corrupt_skipped : int;  (** invalid records skipped at open *)
  hits : int;  (** {!find} calls answered *)
  misses : int;  (** {!find} calls not answered *)
  appended : int;  (** records appended this session *)
}
(** Lifetime counters, reported in the batch/daemon summaries. *)

val stats : t -> stats
(** A snapshot of the counters so far. *)

val close : t -> unit
(** Flush and close the backing file, if any.  The [t] must not be
    used afterwards. *)
