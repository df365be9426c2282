(** A tiered exact visited store: hot in-RAM keys in front of immutable,
    prefix-compressed, CRC-checked sorted runs on disk, with a per-run
    Bloom front-filter for cheap negative probes.

    The store is how the exploration engine honours a memory budget:
    crossing it flushes the hot tier to a new run instead of forgetting
    anything, so membership answers stay {e exact} and a sweep under
    memory pressure stays [Complete].
    (The Bloom filters here only short-circuit negatives — a "maybe"
    always falls through to the CRC-checked block read.)

    Keys are opaque byte strings; callers marshal their structural keys
    with [Marshal.No_sharing] so byte equality coincides with structural
    equality.  Run files are written atomically and never rewritten, so a
    snapshot can name them and a crash/resume re-opens exactly the same
    immutable data.  Every operation takes an internal mutex: one store
    can serve as the shared claim table of a parallel sweep. *)

type t

exception Corrupt of string
(** A run file failed validation (bad magic, CRC mismatch, truncation).
    Raised by {!import} and by probes that hit a file corrupted after
    import — never silently ignored. *)

val create : dir:string -> threshold:int -> t
(** A fresh store spilling into [dir] (created if missing), flushing the
    hot tier whenever it reaches [threshold] keys.  Pre-existing run
    files in [dir] are deleted: a fresh store owns the directory's run
    namespace.
    @raise Invalid_argument if [threshold < 1]. *)

val add : t -> string -> bool
(** [add t key] is [true] iff [key] was not yet in the store (it is now):
    the claim operation of a transposition table. *)

val mem : t -> string -> bool
(** Membership without insertion. *)

val flush : t -> unit
(** Force the hot tier into a new run on disk (no-op when empty) — the
    memory-budget safety valve. *)

val hot_size : t -> int
(** Keys currently in the RAM tier — what the memory budget meters. *)

val total : t -> int
(** Distinct keys in the store (hot + spilled). *)

type stats = {
  st_hot : int;
  st_runs : int;
  st_spilled_keys : int;
  st_probes : int;
  st_bloom_skips : int;  (** negative probes answered by a Bloom filter *)
  st_disk_bytes : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

type state = { x_hot : string array; x_runs : string list }
(** The marshal-friendly image of a store: the hot keys plus the
    basenames of the immutable run files.  Blooms and block indexes are
    derived data, rebuilt (and CRC-validated) on {!import}. *)

val export : t -> state

val import : dir:string -> threshold:int -> state -> t
(** Rebuild a store from {!export}'s image: every listed run file is
    re-scanned and validated, and run files in [dir] {e not} listed
    (flushed after the snapshot was taken) are deleted as orphans.
    @raise Corrupt if a listed run file is missing or fails validation.
    @raise Invalid_argument if [threshold < 1]. *)

val close : t -> unit
(** Close any channels held open on run files (the files stay). *)

val remove_dir : string -> unit
(** [remove_dir dir] deletes the files in [dir] (run files and any temp
    file an interrupted write left) and then [dir] itself.  A directory
    that is already gone is not an error.  For stores in a private
    directory, after {!close}. *)
