(** The supervised batch verification service.

    A batch fans its jobs out across a pool of {e forked} worker
    processes — crash isolation by construction: a segfault, OOM-kill,
    or wedge in one job costs at most that job's attempt, never the
    batch.  Each worker slot is forked once and serves job after job
    ({!Runner.fork_persistent}); a worker that dies is re-forked when a
    job next needs its slot.  The supervisor does no verification work
    itself, and no worker outlives {!run}.

    Robustness machinery:
    - {b per-job timeouts}: a worker still busy [cfg.timeout_s] after
      its dispatch is SIGKILLed by the pool's hang rule
      ({!Supervise.run_pool}) and the attempt counts as failed;
    - {b retry with backoff}: failed attempts are retried up to
      [cfg.retries] times, each retry delayed by exponential backoff
      plus deterministic jitter ({!Supervise.backoff_delay_ms});
    - {b poison quarantine}: a job that exhausts its attempts is
      quarantined with the worker's last stderr captured for triage, and
      the batch carries on;
    - {b graceful drain}: SIGTERM/SIGINT (or the batch deadline) stops
      dispatch, forwards SIGTERM to in-flight workers (whose exploration
      stops at a safe point via the {!Explore.rcfg} cancel hook), writes
      a crash-safe checkpoint, and exits with the suspended summary;
    - {b resume}: [cfg.resume] validates the checkpoint against the job
      list's fingerprint and re-runs only unfinished jobs;
    - {b verdict cache}: results are served from and recorded to a
      persistent {!Verdict_cache} so replaying a corpus is nearly free.

    Results stream as JSONL (one object per job, in completion order) to
    [cfg.out]; quarantined jobs produce a record carrying the full
    reproduction recipe (seed + generator flags) and captured stderr. *)

type cfg = {
  out : string option;  (** results JSONL path; [None] = stdout *)
  workers : int;  (** concurrent forked workers (>= 1) *)
  timeout_s : float;  (** per-job wall clock before SIGKILL *)
  retries : int;  (** max attempts per job (>= 1) *)
  backoff_ms : int;  (** base backoff between attempts *)
  cache : Verdict_cache.t;
  checkpoint : string option;  (** crash-safe queue snapshot path *)
  resume : string option;  (** checkpoint to resume from *)
  deadline_s : float option;  (** whole-batch budget; drains at expiry *)
  model : Worker.model;  (** the Definition-2 synchronization model *)
  fuel : int option;  (** per-job state bound forwarded to workers *)
  spill_dir : string option;
      (** visited-set spill area: each worker spills into its own
          [jobN] subdirectory (created on demand, removed after the
          attempt).  Without it, memory-budgeted jobs spill into a
          private temporary directory; they stay complete either way *)
  mem_budget : int option;  (** per-job visited-set byte budget *)
  log : string -> unit;  (** supervisor event log (CLI: stderr) *)
  verbose : bool;  (** log per-attempt worker lifecycle events *)
}

val default_cfg : cfg
(** 4 workers, 10 s timeout, 3 attempts, 100 ms backoff, in-memory
    cache, drf0, silent log. *)

type quarantined = {
  q_job : Job.t;
  q_attempts : int;
  q_reason : string;  (** last failure, e.g. ["timeout: SIGKILL after 0.5s"] *)
  q_stderr : string;  (** tail of the worker's captured stderr *)
}

type summary = {
  total : int;  (** jobs in the (expanded) job list *)
  completed : int;  (** verdicts emitted, this run + resumed-from runs *)
  ok : int;  (** verdicts without a violation, this run *)
  violations : int;  (** Definition-2 counterexamples found, this run *)
  quarantined : quarantined list;  (** this run's quarantine, newest last *)
  quarantined_total : int;  (** including resumed-from runs *)
  pending : int;  (** jobs not finished (> 0 only when suspended) *)
  served_from_cache : int;  (** verdicts answered without a worker *)
  sym_dedup : int;
      (** cache hits served through the symmetry key: the job's exact
          text was never verified, a renaming of it was *)
  cache : Verdict_cache.stats;
  suspended : bool;  (** a signal or the deadline drained the batch *)
  wall_s : float;
}

exception Resume_rejected of string
(** The resume checkpoint failed validation (CRC, kind, job-list
    fingerprint, or model mismatch). *)

val run : cfg -> Job.t list -> summary
(** Run the batch to completion or drain.  Fork-based: call from a
    single-domain process (the CLI); a worker never spawns domains.
    @raise Invalid_argument on a non-positive [workers]/[retries]
    @raise Resume_rejected when [cfg.resume] is unusable *)

val exit_code : summary -> int
(** The [weakord batch] exit-code contract: [3] suspended (resume point
    written when configured), else [1] when any violation was found,
    else [4] when any job was quarantined, else [0]. *)

val pp_summary : Format.formatter -> summary -> unit
(** The human summary the CLI prints to stderr, including cache
    hit/miss/corrupt counters. *)
