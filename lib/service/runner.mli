(** Shared job-execution machinery under the service front ends.

    The one-shot {!Batch} supervisor, the {!Fleet} and the long-lived
    {!Daemon} schedule work, but none of them verifies anything
    in-process: every attempt runs in a forked worker.  This module is
    that per-attempt layer — materializing a {!Job.t} into a program
    plus cache keys, the worker processes, the CRC-framed replies, and
    the JSONL records the front ends stream — so the supervisors cannot
    drift apart on exit-status conventions or record shapes.

    Batch and fleet fork each worker slot once per run
    ({!fork_persistent}): the worker takes its next job over a request
    pipe and answers with a CRC frame on a reply pipe, whose EOF is also
    its exit channel.  The daemon is the one remaining per-attempt
    forker ({!spawn}).  It still reaps on a 20 ms [select] tick, so its
    misses wait on the tick, not on the fork, and a persistent pool
    would not show.  Making it faster is held back on purpose: the
    [serve-mixed] benchmark keeps every repetition's records in the
    process the daemon is forked from, so a faster daemon runs more
    repetitions and raises that workload's peak RSS past its bound.
    Once the benchmark drops its records, the daemon can wake on exit
    channels and move onto persistent workers too.

    Scheduling policy (retry queues, backoff, fairness, drain) stays
    with the callers.  What is shared is how a supervisor waits: every
    worker has an exit channel, and {!sleep_until} sleeps until a
    channel, a socket or a drain signal speaks, or the next deadline
    falls due.

    {1 Worker exit-status contract}

    A worker ends an attempt in exactly one of these ways, and every
    supervisor classifies them identically:

    - a valid reply (persistent worker) or exit [0] with a valid result
      file (daemon) — a verdict; the supervisor caches and streams it.
      A persistent worker then waits for its next job.
    - a reply that fails its CRC or kind, exit [0] without a reply, or
      exit [0] with a missing or corrupt result file — a failed
      attempt.
    - exit [9] — cancelled at a safe point (drain); the job is {e not}
      failed, it returns to the pending queue for the resume.
    - exit [10] — the verification engine raised; the exception text is
      on stderr.  Failed attempt.
    - killed by a signal — [SIGKILL] from the supervisor's timeout, or
      anything else (OOM killer, crash).  Failed attempt. *)

(** {1 Execution parameters} *)

type exec = {
  x_model : Worker.model;  (** synchronization model checked per job *)
  x_fuel : int option;  (** optional exploration fuel bound *)
  x_spill_dir : string option;
      (** root for disk-spilled visited stores; each attempt gets a
          private [jobN/] subdirectory so concurrent workers and
          retries never share run files, removed when the attempt ends *)
  x_mem_budget : int option;  (** visited-set memory budget, bytes *)
}
(** What a worker needs beyond the job itself.  One value is built per
    supervisor run and shared by every spawn. *)

(** {1 Materialization} *)

type mat = {
  m_prog : (Prog.t * string * string) option;
      (** program, exact cache key, orbit-canonical symmetry key;
          [None] for wedge jobs (which have no program) and for
          unusable jobs (see [m_error]) *)
  m_error : string option;
      (** why the job cannot run (unknown builtin, parse error,
          unknown machine); retrying cannot help — supervisors send
          such jobs straight to quarantine *)
}
(** The result of turning a job description into something runnable. *)

val materialize : model:Worker.model -> Job.t -> mat
(** [materialize ~model j] resolves [j]'s source (builtin name, litmus
    file, generator seed) into a program and computes both verdict-cache
    keys under [model].  Deterministic; safe to call in the parent
    before forking (generation is pure, file reads happen once). *)

(** {1 The forked worker} *)

val fork_worker : (unit -> unit) -> int
(** [fork_worker child] flushes the parent's [stdout]/[stderr] (so
    buffered bytes are not emitted twice), forks, runs [child] in the
    child process and [_exit 0]s if it returns; the parent gets the
    pid.  If [child] raises, the child prints the exception on stderr
    and [_exit 10]s, so the exception never unwinds into the code it
    shares with the parent.  The generic fork under {!fork_watched} and
    {!fork_persistent}; any [child] must honor the exit-status contract
    above. *)

(** {1 Exit channels}

    A supervisor learns that a worker finished from the worker's exit
    channel, not from a poll: each watched worker owns one pipe whose
    write end only the worker holds.  When the worker dies, however it
    dies, the kernel closes that end and the parent's read end reaches
    EOF, which wakes the parent's [select]. *)

type child = { pid : int; fd : Unix.file_descr }
(** A forked worker and the read end of its exit channel. *)

val fork_watched : (unit -> unit) -> child
(** [fork_watched body] is {!fork_worker} with an exit channel: it
    makes a pipe, forks, and runs [body ()] in the child, which keeps
    the write end open and never writes to it.  The parent closes its
    copy of the write end before returning, so no later sibling
    inherits it, and EOF on [fd] means "this worker is gone".  Progress
    does not travel on the channel: a readable channel wakes the
    supervisor, and a wake per unit of progress would cost the worker a
    context switch each time. *)

val reap : child -> Unix.process_status
(** [reap c] closes [c.fd] and waits for the worker with a blocking
    [waitpid], retrying on [EINTR].  Blocking is required: the kernel
    closes a dying process's files before its exit status can be
    collected, so a [WNOHANG] call right after EOF can still return
    [0]. *)

(** {1 Persistent workers}

    A persistent worker is forked once and serves many jobs.  It reads
    a request from its request pipe, runs it, answers with one
    length-prefixed {!Snapshot.frame} on its reply pipe, and reads the
    next request; EOF on the request pipe makes it exit [0].  The reply
    pipe doubles as the exit channel: only the worker holds its write
    end, so EOF there means the worker is gone. *)

type worker = private {
  pid : int;
  req : Unix.file_descr;  (** write end of the request pipe *)
  rsp : Unix.file_descr;  (** read end of the reply pipe (non-blocking) *)
  kind : string;  (** the snapshot kind every reply must carry *)
  inbox : Buffer.t;  (** bytes of a reply still arriving *)
  mutable reaped : Unix.process_status option;
      (** set once the worker is reaped; its descriptors are closed *)
}

val fork_persistent :
  kind:string ->
  ?close:Unix.file_descr list ->
  siblings:worker list ->
  (cancelled:(unit -> bool) -> reply:(string -> unit) -> string -> unit) ->
  worker
(** [fork_persistent ~kind ~siblings serve] forks a worker that calls
    [serve ~cancelled ~reply r] on each request [r].  [serve] answers by
    calling [reply payload] once, which frames [payload] under [kind];
    or it ends the process per the exit-status contract ([9] when
    [cancelled ()] holds, [10] on an engine exception, a wedge spins).
    SIGTERM sets the [cancelled] flag, which is cleared before each
    request is read; SIGINT is ignored.

    The child first closes every descriptor of [siblings] and of
    [close] that it inherited: with no [exec], a child that kept a
    sibling's request write end would keep that sibling from ever
    reading EOF, and a supervisor closing an idle sibling would wait
    for it forever.  Pass every live worker as a sibling, and any
    socket the child must not hold. *)

val fork_job_worker :
  exec -> siblings:worker list -> (int -> Job.t * mat * string) -> worker
(** [fork_job_worker x ~siblings lookup] is the batch worker: a request
    is a job id, [lookup id] gives the job, its materialization and its
    per-attempt stderr capture path, and the reply is the verdict
    ({!verdict_of_payload}).  The worker is forked after
    materialization, so it already holds every job. *)

val verdict_of_payload : string -> Verdict_cache.verdict option
(** Decode a batch worker's reply; [None] if it does not unmarshal. *)

val send : worker -> string -> bool
(** [send w r] writes request [r] to [w].  [false] when [w] is gone (its
    request pipe has no reader); the caller must ignore SIGPIPE, which
    {!wake_on_drain} does. *)

type event =
  | Reply of string  (** a whole reply that passed its CRC and kind *)
  | Nothing  (** part of a reply, or an interrupted read *)
  | Died of Unix.process_status
      (** EOF: the worker is gone and reaped; a partial reply is
          dropped, never taken for a verdict *)
  | Corrupt
      (** a reply failed its CRC or kind: the worker was SIGKILLed and
          reaped *)

val receive : worker -> event
(** [receive w] is called when [w.rsp] is readable.  After [Died] or
    [Corrupt] the worker is reaped and its descriptors are closed: drop
    it. *)

val idle_alive : worker -> bool
(** [idle_alive w] is {!receive} for a worker with no job, called when
    its [rsp] is readable.  An idle worker speaks only to die, so
    [false] means it is gone and reaped; a reply nobody asked for is a
    protocol breach, and the worker is SIGKILLed and reaped too. *)

val retire : worker -> Unix.process_status
(** [retire w] closes both pipes and waits for [w] with a blocking
    [waitpid].  An idle worker exits [0] at once on the EOF; a busy one
    must be {!kill}ed instead.  On a reaped worker it only returns the
    status. *)

val kill : worker -> unit
(** [kill w] SIGKILLs [w] and {!retire}s it; nothing if [w] is already
    reaped. *)

(** {1 Waking the supervisor} *)

type wake
(** SIGTERM/SIGINT handlers plus the self-pipe they write to. *)

val wake_on_drain : bool ref -> wake
(** [wake_on_drain drain] installs SIGTERM and SIGINT handlers that set
    [drain] and write one byte to a self-pipe that {!sleep_until}
    watches, so a drain signal ends the supervisor's sleep at once.  It
    also ignores SIGPIPE, so a request to a worker that died idle is an
    error code ({!send}), not the supervisor's death. *)

val restore : wake -> unit
(** Reinstate the three handlers {!wake_on_drain} replaced and close its
    pipe.  Supervisors call it before returning, since the in-process
    tests run many of them per process. *)

val sleep_until :
  wake ->
  float ->
  Unix.file_descr list ->
  Unix.file_descr list ->
  Unix.file_descr list * Unix.file_descr list
(** [sleep_until w until rfds wfds] is one [Unix.select] over [rfds],
    [wfds] and [w]'s self-pipe that returns when a descriptor is ready,
    a drain signal arrives, or the absolute time [until]
    ([Unix.gettimeofday] scale, [infinity] for none) has passed by
    1 ms.  The sleep is capped at 1 s as a backstop for a signal that
    lands between the runtime's pending-signal check and the system
    call.  Returns the ready descriptors of [rfds] and [wfds]; an
    interrupted call returns none. *)

val redirect_stderr : string -> unit
(** Point the process's [stderr] at a capture file (truncating);
    best-effort, for use inside forked workers before any output. *)

val spawn : exec -> result_path:string -> stderr_path:string -> Job.t -> mat -> child
(** [spawn x ~result_path ~stderr_path j m] forks a watched worker
    ({!fork_watched}) for one attempt at [j]; the daemon's worker.  The worker never writes
    to its exit channel.  The child redirects stderr to
    [stderr_path], runs {!Worker.run} (or the wedge spin loop for
    {!Job.Wedge} jobs), writes its verdict to [result_path] via an
    atomic install, and terminates per the exit-status contract above.
    Any stale [result_path] is removed before the fork, and the
    parent's [stdout]/[stderr] channels are flushed so buffered bytes
    are not emitted twice; callers streaming to other channels must
    flush those themselves first. *)

val read_result : string -> Verdict_cache.verdict option
(** [read_result path] loads and validates a worker's result file.
    [None] on any defect — missing file, CRC mismatch, wrong snapshot
    kind, truncation — so a torn write degrades to a retried attempt,
    never a wrong verdict. *)

val read_tail : ?max_bytes:int -> string -> string
(** [read_tail path] returns the trimmed last [max_bytes] (default
    2048) of a worker's captured stderr, for quarantine diagnostics.
    [""] if the file is missing. *)

val signal_name : int -> string
(** [signal_name s] renders an OCaml signal number ([Sys.sigkill] etc.)
    as its conventional name, for diagnostics. *)

(** {1 JSONL rendering}

    Every record is a single line.  The stable fields come first (job
    identity, and for seed jobs the [seed] + [gen] reproduction
    recipe); the volatile trailer [,"cached":_,"attempts":_,"ms":_}]
    always comes last in a fixed order so tooling can strip it with one
    regular expression when diffing runs modulo timing. *)

val record_trailer : cached:bool -> attempts:int -> ms:float -> string
(** The volatile trailer every JSONL record ends with, in the fixed
    order tooling strips: [,"cached":_,"attempts":_,"ms":_}].  Exposed
    so the fleet's unit/poison records stay strippable by the same
    regular expression as batch and daemon records. *)

val verdict_record :
  Job.t -> Verdict_cache.verdict -> cached:bool -> attempts:int -> ms:float -> string
(** [verdict_record j v ~cached ~attempts ~ms] renders a completed
    job's verdict as one JSONL line ([status:"ok"]), including the
    engine telemetry field [spilled_runs]. *)

val quarantine_record :
  Job.t -> reason:string -> stderr:string -> attempts:int -> ms:float -> string
(** [quarantine_record j ~reason ~stderr ~attempts ~ms] renders a
    poison job's terminal record ([status:"quarantined"]) carrying the
    last failure reason and the worker's captured stderr tail. *)

val json_escape : string -> string
(** [json_escape s] escapes [s] for embedding inside a JSON string
    literal (quotes, backslashes, control characters). *)
