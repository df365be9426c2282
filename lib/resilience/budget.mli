(** Wall-clock and memory budgets for long verification runs.

    A budget is created when a run starts ([deadline_s] is relative to
    creation time) and consulted at safe points: the exploration engine
    checks it between state expansions and the fault campaign between
    simulator runs.  Exhaustion is
    always cooperative — the caller drains to a clean [Partial] result
    (with a resumable checkpoint where one is configured) rather than
    being killed mid-sweep. *)

type t

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Memory  (** the tracked structure crossed the memory budget *)

val create : ?deadline_s:float -> ?mem_bytes:int -> unit -> t
(** [create ~deadline_s ~mem_bytes ()] starts the clock now.  Omitted
    components are unlimited.
    @raise Invalid_argument on a negative deadline or byte budget. *)

val unlimited : t
(** A budget nothing can exhaust. *)

val is_unlimited : t -> bool

val over_deadline : t -> bool
(** The wall-clock deadline (if any) has passed.  One [gettimeofday] per
    call: cheap enough for a safe-point check every few dozen states, not
    for one per instruction. *)

val over_memory : t -> bytes:int -> bool
(** [bytes] — the caller's estimate of the structure under budget —
    exceeds the memory budget (if any). *)

val check : t -> bytes:int -> reason option
(** Both checks; [Memory] wins ties (it is the cheaper test). *)

val deadline_only : t -> t
(** The same absolute deadline with the memory component dropped — for
    sub-sweeps whose structures are not the memory hog (e.g. the SC
    reference sweep inside a budgeted verify). *)

val deadline_s : t -> float option
(** Seconds until the deadline (negative once passed); [None] if
    unlimited. *)

val mem_bytes : t -> int option

val reason_string : reason -> string
(** ["deadline"] or ["memory"]. *)

val pp_reason : Format.formatter -> reason -> unit
