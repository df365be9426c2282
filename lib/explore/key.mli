(** Packed state keys: one flat [int array] per machine state, written in
    the program's dense {!Layout} ids.

    Every machine lays its key out the same way up front — the memory as
    a binding segment, then one record per processor: a few plain ints,
    the register segment, and for buffering machines a list (its length,
    then fixed-width entries whose first int is a location id).  What
    follows the records is machine-specific (def2's reservations).  Each
    part has a fixed width or an encoded length, and an absent binding
    differs from a binding to 0, so the packing is injective on a
    program's states.

    {!Layout.encode} writes keys.  This module owns what the exploration
    engine does with them: a hash over every int, a monomorphic equality,
    automorphisms compiled to int index maps once per run, and the orbit
    minimum, computed in one reused scratch buffer with an early exit. *)

type t = int array

val hash : t -> int
(** Mixes every int of the key (no depth or length cut-off). *)

val equal : t -> t -> bool

(** {2 Automorphisms} *)

type perm = private {
  src_proc : int array;  (** image processor [q] is old processor [src_proc.(q)] *)
  dst_proc : int array;  (** old processor [p] becomes [dst_proc.(p)] *)
  src_loc : int array;  (** image location [j] is old location [src_loc.(j)] *)
  dst_loc : int array;  (** old location [l] becomes [dst_loc.(l)] *)
  src_reg : int array array;
      (** per image processor [q]: image register [j] is old register
          [src_reg.(q).(j)] of processor [src_proc.(q)] *)
  nregs : int array;  (** per old processor, its register count *)
}
(** An automorphism as the destination-order index maps an image writer
    reads. *)

val compile : Sym.perm -> perm

type out
(** The scratch an image is written into.  One per engine (or per
    parallel worker): not thread-safe. *)

val out : unit -> out

exception Larger
(** Raised by {!put} once the image being written is known to exceed the
    current minimum; only {!orbit_min} catches it. *)

val put : out -> int -> unit
(** Write the image's next int. *)

val put_procs : out -> t -> perm -> Layout.shape -> int
(** Write the image of the memory segment and the processor records
    that {!Layout.encode} wrote in the given shape; returns the offset
    in the source key just past the records. *)

val scratch : out -> int -> int array
(** An int array of at least the given length, reused across calls. *)

type image = perm -> t -> out -> unit
(** A machine's image writer: {!put}s the key of the permuted state, in
    order. *)

val image : Layout.shape -> image
(** The image writer of a key that is nothing but its processor records
    in the given shape. *)

val permute : image -> Sym.perm -> t -> t
(** The whole image.  Compiles the permutation on every call: a
    reference path, not the engine's. *)

val orbit_min : image -> out -> perm list -> t -> t
(** The lexicographically least key of [k]'s orbit.  Each image is
    written into [out]'s buffer while it is compared with the least key
    so far; writing stops at the first larger int, and only a new
    minimum is copied out.  Returns [k] itself (physically) when no
    non-identity image is smaller. *)
