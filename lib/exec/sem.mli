(** Atomic, in-program-order small-step semantics — the paper's "idealized
    architecture" where all memory accesses execute atomically and in
    program order. *)

module Smap = Exp.Smap

type thread_state = { next : int; regs : int Smap.t }
type state = {
  memory : int Smap.t;
  threads : thread_state array;
  lay : Layout.t;  (** the program's dense ids, for {!key_of_state} *)
}

val initial : Prog.t -> state
val read_mem : int Smap.t -> string -> int
val thread_done : Prog.t -> state -> int -> bool
val all_done : Prog.t -> state -> bool
val next_instr : Prog.t -> state -> int -> Instr.t option

val step : Prog.t -> state -> int -> state option
(** [step prog s p] executes the next instruction of thread [p] atomically.
    Returns [None] if [p] has finished, or if its next instruction is a
    blocked [Await]/[Lock] that cannot currently succeed. *)

val final_of_state : state -> Final.t

type key = int array

val key_shape : Layout.shape
(** One plain int per thread record, no list. *)

val key_of_state : state -> key
(** Packed key for memoizing state exploration, written by
    {!Layout.encode} in {!key_shape}: the memory as a {!Layout} binding
    segment, then per thread its [next] and its register segment.
    Injective on states of one program; hash and compare it with
    [Key]. *)
