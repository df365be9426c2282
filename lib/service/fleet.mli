(** The sharded fuzz fleet behind [weakord fleet]: a fault-tolerant
    supervisor driving the three-way differential oracle ({!Fuzz})
    across fork-isolated shard workers, built to survive the failure
    modes a 10^5–10^6-seed nightly campaign actually meets — seeds
    that wedge an engine, workers that crash or get OOM-killed, and
    operators that SIGTERM the whole campaign and expect to resume it
    without losing or double-counting coverage.

    {1 Supervision tree}

    The supervisor partitions the seed range into fixed-size {e work
    units} and keeps at most [shards] workers in flight; each worker is
    a fork running {!Fuzz.check_seed} over its unit's seeds, one at a
    time, reporting progress as a heartbeat in its slot of a shared
    mapping (the seed it is about to check and when it started it; a
    heartbeat never wakes the supervisor, which learns of exits from
    {!Runner.fork_watched}'s exit channel) and shipping its accumulated
    {!Fuzz.seed_report} tallies back in a CRC-framed result file under
    the {!Runner} worker contract (exit [0] = unit complete, exit [9] =
    drained at a seed boundary with a partial result, exit [10] /
    signal = failed attempt).

    {1 Hang hunting}

    A worker whose heartbeat has not moved within [hang_timeout_s]
    is presumed wedged on its current seed: the watchdog SIGKILLs it
    and {e bisects} the unit around the suspect seed — the seeds before
    it keep the unit's accumulated progress, the seeds after it become
    a fresh unit, and the suspect itself becomes a single-seed unit
    retried with exponential backoff.  A suspect that keeps hanging
    past [retries] attempts is {e poison}: it is quarantined with a
    dossier ({!Fuzz.quarantine_seed}) carrying a ddmin-minimized
    reproducer ({!Shrink}), and the campaign keeps going (exit code
    [4], matching the batch service's completed-with-quarantine
    contract).  Deaths the watchdog did not cause (a crash, an external
    SIGKILL) requeue the whole unit instead — a transient kill must not
    split units, or an interrupted campaign's records would not match
    an uninterrupted one's.

    {1 Drain and resume}

    SIGTERM/SIGINT, the wall-clock deadline or the supervisor memory
    budget start a drain: shards get SIGTERM, stop at the next seed
    boundary and ship partial results; the supervisor merges each
    unit's [next_seed] frontier and accumulated tallies into a
    CRC-validated [weakord.fleet] checkpoint and reports exit [3].
    [--resume] restores the pending units (frontiers included) after
    validating the campaign fingerprint, so an interrupted+resumed
    campaign emits {e record-identical} output (modulo the volatile
    [attempts]/[ms] trailer) to an uninterrupted run — the chaos suite
    ([test/fleet_chaos.sh]) asserts exactly that.

    {1 Observability}

    Campaign gauges (live shards with their maximum and time-weighted
    mean, unit queue, units done/requeued/split, poison and
    disagreement counts, seeds/sec) are served as one-line JSON over an
    optional Unix
    socket speaking the daemon wire protocol's [STATS] verb, so an
    operator can watch a nightly campaign with [weakord client]. *)

type cfg = {
  oracle : Fuzz.cfg;
      (** the differential oracle each shard runs; [quarantine] and
          [shrink] govern the supervisor-side dossiers *)
  shards : int;  (** maximum concurrent shard workers *)
  unit_seeds : int;  (** seeds per work unit *)
  hang_timeout_s : float;
      (** per-seed heartbeat budget before the watchdog SIGKILLs *)
  retries : int;  (** hang strikes before a suspect seed is poison *)
  backoff_ms : int;  (** base for suspect-retry exponential backoff *)
  out : string option;  (** JSONL stream (append mode); [None] = stdout *)
  checkpoint : string option;
  resume : string option;
  deadline_s : float option;
  mem_budget : int option;  (** supervisor heap budget, bytes *)
  wedge_seeds : int list;
      (** chaos injection: these seeds spin forever in the shard,
          deterministically exercising the hang-hunting path *)
  stats_socket : string option;  (** serve STATS over this Unix socket *)
  log : string -> unit;
  verbose : bool;
}

val default_cfg : cfg
(** 4 shards, 256-seed units, 30 s hang budget, 3 retries, 100 ms
    backoff base, silent. *)

type poison = {
  p_seed : int;
  p_reason : string;
  p_attempts : int;
  p_report : string option;  (** dossier path when a quarantine dir is set *)
}

type summary = {
  f_units_total : int;
      (** every unit that ever entered the queue — planned plus
          bisection-created, cumulative across resumed runs *)
  f_units_done : int;
  f_units_requeued : int;  (** failed attempts sent back to the queue *)
  f_units_split : int;  (** hang bisections performed *)
  f_pending : int;  (** units not finished (nonzero only when draining) *)
  f_programs : int;
  f_checks : int;
  f_disagreements : int;
  f_sim_runs : int;
  f_sim_wedged : int;
  f_sim_skipped : int;
  f_states : int;
  f_poison : poison list;  (** this run's poisons, in seed order *)
  f_poison_total : int;  (** including resumed-from-checkpoint poisons *)
  f_wall_s : float;
  f_suspended : bool;
}

exception Resume_rejected of string
(** The [--resume] checkpoint is unusable: unreadable, wrong kind, or
    taken over a different campaign (fingerprints differ). *)

val exit_code : summary -> int
(** [3] when suspended (resume to finish), else [1] on any oracle
    disagreement, else [4] when any seed was poisoned, else [0] —
    the batch service's exit-code contract. *)

val run : cfg -> lo:int -> hi:int -> summary
(** Drive the campaign over seeds [lo..hi] inclusive.
    @raise Invalid_argument when [lo > hi], or when [shards],
    [unit_seeds] or [retries] is below [1], or when the stats socket
    cannot be bound
    @raise Resume_rejected when [cfg.resume] names a bad checkpoint. *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Deterministic internals}

    Exposed for the unit suite: both are pure, and both must stay
    deterministic — the unit plan keys checkpoint resume, and the wedge
    rule doubles as the injected-poison shrink predicate. *)

val units_of_range : lo:int -> hi:int -> unit_seeds:int -> (int * int) list
(** The unit plan: inclusive [(lo, hi)] sub-ranges of [unit_seeds]
    seeds (the last one possibly shorter), covering [lo..hi] exactly. *)

val wedge_fires : wedge_seeds:int list -> seed:int -> Prog.t -> bool
(** The injected-hang rule: fires when [seed] is a wedge seed and the
    program still has at least two instructions — so ddmin against this
    predicate shrinks a generated program to a two-instruction minimal
    reproducer, never to nothing. *)
