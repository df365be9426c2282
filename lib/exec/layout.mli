(** Dense integer ids for a program's locations and per-thread registers —
    the index space every machine's packed state key is written in.

    Ids follow [String.compare] order, so iterating an [Exp.Smap] of
    locations or registers visits them in id order.  Built per program
    (and cached on its physical identity) by the exploration run, never
    at parse time.

    A {e binding segment} packs a map over [n] names into
    [map_size n] ints: [words n] presence-mask words (bit [i mod bits] of
    word [i / bits] set iff name [i] is bound), then one value per name,
    0 where absent.  An absent binding and a binding to 0 therefore
    differ. *)

type t = {
  locs : string array;  (** every location of the program, sorted *)
  regs : string array array;
      (** per thread: every register an instruction of it writes, sorted *)
}

val cached : Prog.t -> t
(** The program's layout, memoized process-wide on physical program
    identity.  Thread-safe (racing domains at worst recompute the
    immutable layout). *)

val loc_id : t -> string -> int
(** @raise Invalid_argument for a name that is not a program location. *)

val reg_id : t -> proc:int -> string -> int
(** @raise Invalid_argument for a register thread [proc] never writes. *)

val bits : int
(** Presence bits per mask word. *)

val words : int -> int
(** Mask words of a binding segment over [n] names. *)

val map_size : int -> int
(** Ints of a binding segment over [n] names: [words n + n]. *)

(** {2 Writing a packed key}

    Keys are laid out as the memory segment, then one record per
    processor in the machine's {!shape}, then a machine-specific tail
    (see [Key]).  {!encode} is the one writer of that layout; [Key]'s
    image writer reads it back from the same [shape]. *)

type shape = {
  fixed : int;  (** plain ints at the head of each processor record *)
  width : int;
      (** when positive, the record ends in a list: its length, then
          [width]-int entries whose first int is a location id *)
}
(** The format of a machine's processor records.  The register segment
    follows the [fixed] ints. *)

type enc
(** A key under construction, filled front to back. *)

val int : enc -> int -> unit
val loc : enc -> string -> unit
(** The next int, a location's id. *)

val encode :
  t ->
  shape ->
  ?tail:int ->
  ?entries:('p -> 'e list) ->
  ?entry:(enc -> 'e -> unit) ->
  int Exp.Smap.t ->
  'p array ->
  fixed:(enc -> 'p -> unit) ->
  regs:('p -> int Exp.Smap.t) ->
  enc
(** [encode lay shape memory procs ~fixed ~regs ~entries ~entry] writes
    the memory segment and one record per processor of [procs]: [fixed]
    writes its plain ints, then its [regs] segment, then (when
    [shape.width > 0]) the length of its [entries] list and [entry] for
    each, oldest first.  It returns the key with room left for [tail]
    (default 0) more ints, which the caller writes before {!finish}.
    @raise Invalid_argument if [fixed] or [entry] writes other than
    [shape.fixed] or [shape.width] ints, or on a memory location or
    register that is not in the layout. *)

val finish : enc -> int array
(** The key, checked full. *)
