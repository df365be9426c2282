(** Definition 2, executable: hardware is weakly ordered with respect to a
    synchronization model iff it appears sequentially consistent to all
    software obeying the model.

    The real definition quantifies over all programs; {!verify} checks it
    over a finite corpus and reports each counterexample. *)

type sync_model = { model_name : string; obeys : Prog.t -> bool }

val drf0 : sync_model
val drf1 : sync_model

val unconstrained : sync_model
(** Every program obeys it: being weakly ordered w.r.t. this model is being
    sequentially consistent. *)

val fenced_delays : sync_model
(** A program obeys it iff every Shasha–Snir delay pair is separated by a
    fence — the contract for fence-based hardware like the RP3 option or
    the naive machines. *)

type hardware = { hw_name : string; outcomes : Prog.t -> Final.Set.t }

val of_machine : ?domains:int -> ?reduce:bool -> Machines.t -> hardware
(** [?domains] (default 1) and [?reduce] (default [true]) are forwarded
    to {!Machines.explore}: the hardware's outcome sets are computed with
    that many parallel domains, with or without the machine's
    partial-order reduction.  The sets themselves are identical for every
    combination. *)

val of_model : Models.t -> hardware

val appears_sc : ?por:bool -> hardware -> Prog.t -> bool
(** The hardware's outcomes for the program are a subset of the SC
    outcomes.  [por] (default [true]) selects the partial-order-reduced
    SC enumeration; [~por:false] forces the unreduced sweep (the CLI's
    [--no-por]) — same set, different strategy. *)

type coverage =
  | Exhaustive  (** every reachable state examined, exact visited set *)
  | Bounded of string
      (** a budget limited coverage (the string says which).  The
          verdict is still sound: outcomes found are real, so a
          counterexample stands — only the {e absence} of one is weaker
          than exhaustive. *)

val coverage_string : coverage -> string
(** ["exhaustive"], ["bounded:sc-budget"], ... *)

type verdict = {
  program : Prog.t;
  obeys_model : bool;
  sc_appearance : bool;
  ok : bool;  (** [obeys_model] implies [sc_appearance] *)
  coverage : coverage;
  states : int;
      (** distinct hardware states expanded ([0] when the hardware is not
          a counting engine, e.g. axiomatic models via {!verify}) *)
  reduced : bool;
      (** the exploration behind this verdict ran with partial-order
          reduction enabled (the outcome set, and hence the verdict, is
          identical either way — this records which strategy produced
          it) *)
  sym_group : int;
      (** order of the automorphism group the exploration reduced modulo
          ([1]: symmetry off or trivial) *)
  sym_hits : int;  (** probes redirected to another orbit representative *)
  spilled_runs : int;
      (** visited-set runs flushed to the spill directory ([0] without
          one) *)
  spilled_keys : int;  (** visited keys living on disk at the end *)
}

type report = {
  hardware : string;
  model : string;
  verdicts : verdict list;
  weakly_ordered : bool;  (** no counterexample in the corpus *)
}

val report_exhaustive : report -> bool
(** Every verdict has {!Exhaustive} coverage — [weakly_ordered] then
    means "no counterexample exists in the corpus", not merely "none
    found". *)

val verify :
  ?por:bool -> hw:hardware -> model:sync_model -> Prog.t list -> report
(** Check Definition 2 over the corpus: one {!verdict} per program.
    [por] is forwarded to {!appears_sc} ([~por:false] = the CLI's
    [--no-por]); the verdicts are identical either way. *)

val counterexamples : report -> verdict list
(** The failing verdicts (programs obeying the model with non-SC
    outcomes). *)

val weaker_than_sc : hw:hardware -> Prog.t list -> bool
(** Some corpus program exhibits a non-SC outcome: the hardware is not just
    trivially weakly ordered by being SC. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Resumable verification}

    {!verify_machine} is {!verify} for an abstract machine with the
    resilience layer threaded through: a deadline or fuel bound stops
    the campaign at a safe point, a memory budget spills, and the whole
    campaign state — finished verdicts, corpus position, and the
    in-flight program's exploration snapshot — lives in ONE crash-safe
    checkpoint file (CRC-checked, atomically installed, last-good
    [.prev] generation retained), and [~resume] restarts from exactly
    there. *)

type run_report = {
  report : report;
  suspended : Explore.stop_reason option;
      (** [Some r]: a budget stopped the campaign; the report covers only
          the programs finished so far and the checkpoint (if configured)
          holds the resume point *)
  recovered : bool;
      (** the resume checkpoint came from the [.prev] last-good
          generation (the primary was corrupt or missing) *)
}

val verify_machine :
  ?domains:int ->
  ?fuel:int ->
  ?por:bool ->
  ?sym:bool ->
  ?spill_dir:string ->
  ?budget:Budget.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?obs:Obs.t ->
  ?on_event:(string -> unit) ->
  machine:Machines.t ->
  model:sync_model ->
  Prog.t list ->
  run_report
(** Check Definition 2 over the corpus with checkpoints and budgets.

    [~checkpoint path] keeps [path] current: rewritten (atomically) at
    every program boundary and every [checkpoint_every] state expansions
    inside a program, so a [SIGKILL] at any moment loses at most that
    much work.  [~resume path] validates the checkpoint (CRC, version,
    machine, model, corpus fingerprints) and continues; a resumed run
    reaches the same verdicts as an uninterrupted one.  [~budget]'s
    deadline suspends the campaign cleanly ([suspended = Some _]) with
    a final checkpoint instead of dying mid-sweep; its memory component
    never suspends or bounds anything: the visited set spills to disk
    and coverage stays {!Exhaustive}.

    [~sym] (default [true]) prunes each exploration modulo the program's
    automorphism group; verdicts are identical, [states] drops on
    symmetric programs ([--no-sym] is the differential escape hatch).
    [~spill_dir] names the directory of the exact tiered visited store
    ({!Spill_store}) a memory budget spills into.  It defaults to
    [CHECKPOINT.spill] under [~checkpoint] (or [RESUME.spill] under
    [~resume] alone), so a killed run resumes from the runs its
    checkpoint names; with neither, each sweep spills into a private
    temporary directory.
    @raise Explore.Resume_rejected when [~resume] fails validation. *)
