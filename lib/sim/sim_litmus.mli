(** Running litmus programs ([Prog.t]) on the timing simulator.

    The same corpus that drives the abstract machines runs on the protocol
    simulator — under fault injection, the observed outcome must still be
    one the corresponding model allows. *)

type run = {
  final : Final.t;  (** settled memory + per-thread register files *)
  total_cycles : int;  (** completion cycle of the last thread *)
  messages : int;  (** protocol messages sent *)
  retransmits : int;  (** lost messages recovered by backoff *)
  nacks : int;  (** requests bounced off busy directory lines *)
  txn_timeouts : int;  (** transaction deadline extensions *)
  dups_suppressed : int;  (** duplicate deliveries discarded *)
  reorders : int;  (** messages buffered to restore per-line order *)
  sanitizer_checks : int;  (** invariant sweeps performed *)
  spin_iters : int;  (** spin-loop iterations across all threads *)
  stalls : Obs.Stall.t;  (** stalled cycles by (proc, cause, location) *)
}
(** What one simulated litmus run reports. *)

val run :
  ?cfg:Sim_config.t ->
  ?limit:int ->
  ?obs:Obs.t ->
  ?on_wedged:(string -> unit) ->
  Cpu.policy ->
  Prog.t ->
  run
(** Deterministic; [cfg.nprocs] is overridden by the program's thread
    count.  [obs] (default {!Obs.null}) receives the same event stream as
    {!Sim_run.run}: op spans, transactions, protocol instants, counter
    samples and fault marks.  [on_wedged] (default [ignore]) runs with
    the diagnostic just before {!Sim_run.Wedged} is raised — the hook
    checkpointed campaigns use to dump a final resume point.
    @raise Sim_run.Wedged on deadlock or livelock (with diagnostic dump)
    @raise Sim_sanitizer.Violation on a coherence-invariant violation *)

val try_run :
  ?cfg:Sim_config.t ->
  ?limit:int ->
  ?obs:Obs.t ->
  ?on_wedged:(string -> unit) ->
  Cpu.policy ->
  Prog.t ->
  (run, Sim_run.failure) result
(** [run] with every failure mode reified — for fault campaigns.  On
    failure the tracer passed as [obs] retains the events leading up to
    the wedge, so the campaign can dump the window around each injected
    fault. *)

val matches : Prog.t -> Final.t -> Final.t -> bool
(** Semantic outcome equality over the program's locations and assigned
    registers ([Final.compare] is structural on map bindings, so absent
    and zero bindings would spuriously differ). *)

val in_set : Prog.t -> Final.t -> Final.Set.t -> bool
(** [in_set prog f outcomes]: some outcome in the set semantically matches
    [f] — e.g. the simulator's outcome is among the SC outcomes. *)
