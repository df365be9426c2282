(** Happens-before relations (paper, Section 4): [hb = (po ∪ so)+]. *)

val so_of_trace : Evts.t -> int list -> Rel.t
(** Synchronization order induced by an execution trace (a total completion
    order of event ids): same-location synchronization operations, ordered
    as they complete. *)

val so_all : Evts.t -> Rel.t
(** Every ordered pair of distinct same-location synchronization
    operations, both ways round: a superset of every execution's so. *)

val hb : Evts.t -> so:Rel.t -> Rel.t
(** [(po ∪ so)+]. *)

val so_release_acquire : Evts.t -> Rel.t -> Rel.t
(** Keep only so edges from an operation with a write component to one with
    a read component — the Section 6 refinement by which read-only
    synchronization operations stop acting as releases. *)

val hb1 : Evts.t -> so:Rel.t -> Rel.t
(** [(po ∪ so_release_acquire so)+] — happens-before for DRF1. *)

val ordered : Rel.t -> int -> int -> bool
(** Related one way or the other. *)

val unordered_conflicts : Evts.t -> Rel.t -> (int * int) list
(** Conflicting pairs not ordered by the given relation. *)
