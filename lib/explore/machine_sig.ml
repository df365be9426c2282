(* The interface of an abstract hardware machine: a nondeterministic labeled
   transition system whose complete runs define the outcomes the hardware
   allows for a program.  [Explore] turns any machine into an exhaustive
   outcome-set computation, sequential or parallel.

   A machine may additionally declare a partial-order reduction oracle: a
   labeling of its transitions with enough information to decide
   commutativity, plus an ample-transition selector.  Machines without an
   oracle ([por _ = None]) are explored in full — the safe default. *)

type action = {
  a_proc : int;  (** issuing processor *)
  a_id : int;
      (** discriminates this transition among [a_proc]'s transitions: the
          instruction index for issues, the pending-buffer slot for drains.
          Must be stable across revisits of the same canonical state so
          that sleep-set membership is meaningful. *)
  a_loc : string;
      (** shared location the step touches, or [""] for a purely
          processor-local step (register write, buffer enqueue, fence) *)
  a_write : bool;  (** the step can change the value at [a_loc] *)
  a_sync : bool;
      (** the step reads or writes global synchronization structures
          (reservations, lock state) beyond the single location [a_loc];
          sync steps are never independent of other shared-memory steps *)
}

(* Commutativity of two transition labels.  Deliberately conservative:
   same-processor steps are always dependent (program order), sync steps
   conflict with every non-local step, and two accesses to one location
   conflict unless both are reads.  A machine's labeling must be honest —
   [a_loc = ""] promises the step commutes with every step of every other
   processor. *)
let independent t u =
  t.a_proc <> u.a_proc
  && (t.a_loc = "" || u.a_loc = ""
     || ((not t.a_sync) && (not u.a_sync)
        && not (t.a_loc = u.a_loc && (t.a_write || u.a_write))))

type 'state oracle = {
  successors_labeled : 'state -> (action * 'state) list;
      (** Same transitions as [successors], in the same order, each
          carrying its label. *)
  ample : 'state -> (action * 'state) list -> (action * 'state) option;
      (** [ample st succs], where [succs = successors_labeled st]:
          [Some (a, s')] iff the machine can prove firing this single
          transition alone preserves the outcome set — [(a, s')] must be
          one of [succs]'s entries, commute with every transition any
          other processor (and, for non-issue steps, the same processor)
          can fire before it, and occur in every complete run from [st].
          [None] means expand everything. *)
}

module type MACHINE = sig
  type state

  type key = Key.t
  (** The state's packed key (see {!Key}): a flat [int array] in the
      program's dense {!Layout} ids.  Equal keys must mean the same set of
      future behaviours, and the packing must be injective — an absent
      binding differs from a binding to 0, and every list carries its
      length — so that orbits of keys partition states exactly as orbits
      of states do.  Immutable once built: keys are shared freely across
      domains and marshalled into snapshots and spill runs. *)

  val name : string

  val initial : Prog.t -> state
  (** Also where the state picks up the program's {!Layout}, which
      [canon] writes in. *)

  val successors : Prog.t -> state -> state list
  (** All states reachable in one step.  The empty list on a non-final state
      means the machine is stuck (e.g. all threads blocked on awaits);
      such runs produce no outcome. *)

  val final : Prog.t -> state -> Final.t option
  (** [Some f] iff the state is a complete run (all threads finished, all
      buffered effects drained). *)

  val canon : state -> key
  (** The state's key, written with {!Layout.encode} in the machine's
      record shape: one [int array], no marshalling. *)

  val hash : key -> int
  (** The hash of [Explore]'s state table; every machine uses
      {!Key.hash}, which mixes every int of the key. *)

  val equal : key -> key -> bool
  (** The equality of [Explore]'s state table; every machine uses
      {!Key.equal}. *)

  val image : Key.image
  (** Writes the key of the permuted state, int by int in order, with
      {!Key.put}: the machine's layout code.  Processors move to their
      image with their registers renamed, location ids are renamed, and
      global structures that are kept sorted by location or processor
      (def2's reservations) are re-sorted.  Must satisfy
      [canon (sigma st) = permute pi (canon st)] for the state map [sigma]
      the automorphism [pi] induces; the orbit pruning in [Explore] is
      sound exactly because of that equation. *)

  val permute : Sym.perm -> key -> key
  (** [Key.permute image]: the whole image of a key under an
      automorphism.  A reference path for tests; the engine calls
      {!Key.orbit_min} with [image] and permutations compiled once per
      run. *)

  val por : Prog.t -> state oracle option
  (** The machine's partial-order reduction oracle for [prog], or [None]
      to disable reduction for this machine (always sound). *)
end
