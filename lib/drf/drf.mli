(** The Data-Race-Free-0 synchronization model (Definition 3) and the DRF1
    refinement of Section 6.

    A program obeys DRF0 iff, for every execution on the idealized
    architecture, all conflicting accesses are ordered by that execution's
    happens-before relation [hb = (po ∪ so)+].  DRF1 weakens so to
    release→acquire edges, so read-only synchronization operations (e.g. the
    Test of Test-and-TestAndSet) stop ordering the issuing processor's
    previous accesses. *)

type model = DRF0 | DRF1

val pp_model : Format.formatter -> model -> unit
val hb_of_model : model -> Evts.t -> so:Rel.t -> Rel.t

type race = {
  e1 : Event.t;
  e2 : Event.t;
  sync_order : Sync_orders.t;
      (** synchronization order of a witnessing execution *)
}

val pp_race : Format.formatter -> race -> unit

val races : ?model:model -> Prog.t -> race list
(** All witnesses over all feasible synchronization orders (a conflicting
    pair may be reported once per witnessing order). *)

val check : ?model:model -> Prog.t -> (unit, race list) result
(** [Ok ()] iff {!races} is empty: the reference path and witness
    reporter. *)

val obeys : ?model:model -> Prog.t -> bool
(** [obeys p = (races p = [])], decided without the sync-order search when
    some candidate pair is unordered even under every sync order at once
    ({!Hb.so_all}), and otherwise stopping at the first racy order. *)

val races_of_trace :
  ?model:model -> Evts.t -> int list -> (Event.t * Event.t) list
(** Dynamic race detection on one execution trace (Figure 2 checks one
    depicted execution this way). *)

val trace_obeys : ?model:model -> Evts.t -> int list -> bool

val obeys_naive : ?model:model -> Prog.t -> bool
(** Literal Definition 3 over every SC interleaving; exponential.  For
    cross-checking {!obeys} on small programs. *)
