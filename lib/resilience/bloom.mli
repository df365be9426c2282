(** A Bloom filter over pre-hashed keys: the spill store's per-run
    negative front-filter.

    The filter answers "possibly seen" / "definitely new".  The spill
    store only trusts the "definitely new" answer: a "possibly seen"
    always falls through to an exact lookup in the run file, so a false
    positive costs a block read, never a wrong membership answer. *)

type t

val create : bits:int -> t
(** A filter of [bits] bits (rounded up to a power of two, at least
    [4096]), using 4 probes per key. *)

val add_mem : t -> int -> int -> bool
(** [add_mem t h1 h2] inserts the key with independent hashes [h1], [h2]
    (double hashing derives the probe sequence) and returns [true] iff
    every probed bit was already set — the key was {e possibly} seen
    before. *)

val mem : t -> int -> int -> bool
(** [mem t h1 h2] is [true] iff the key with hashes [h1], [h2] was
    {e possibly} inserted before — the pure membership probe ({!add_mem}
    without the insertion). *)
