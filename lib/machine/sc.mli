(** Exhaustive sequentially consistent execution of litmus programs. *)

val outcomes : ?reduce:bool -> Prog.t -> Final.Set.t
(** The complete set of SC results: one sweep of the {!M_sc} machine by
    the exploration engine, with symmetry pruning off.  [reduce] (default
    [true]) enables the machine's partial-order reduction on every
    program, however small: a thread's next instruction fires alone when
    it is a data access (or fence) provably independent of everything any
    other thread will still do.  The outcome set is identical either way
    (checked differentially); [~reduce:false] is the escape hatch that
    forces the unreduced sweep.  [Machines.explore Machines.sc] is the
    full-control entry point to the same machine. *)

val explore : ?reduce:bool -> Prog.t -> Final.Set.t * int
(** [outcomes] plus the number of distinct states expanded — the
    state-count telemetry the bench harness records. *)

val iter_traces : ?reduce:bool -> Prog.t -> (int list -> Final.t -> unit) -> unit
(** [iter_traces p f] calls [f trace final] for every SC interleaving, where
    [trace] lists event ids (see {!Evts}) in execution order.  Exponential in
    program size; use for litmus-sized programs and cross-checks only.
    [reduce] defaults to [false] here: full-trace clients (race detection on
    every interleaving) need exhaustive enumeration; with [~reduce:true]
    only a representative of each commutation class is visited (covering
    every final result, but not every trace). *)

val count_traces : ?reduce:bool -> Prog.t -> int
