(** The supervision core shared by the service front ends.

    {!Batch}, {!Fleet} and {!Daemon} each schedule their own unit of
    work — a job, a seed range, a ticket — and keep their own reason
    strings, records and summaries.  What they have in common is here,
    once: the retry queue and its backoff, the checkpoint, the session
    (JSONL stream, scratch directory, drain signals), the worker pool
    with its one hang detector (batch and fleet), and the per-job policy
    (batch and daemon). *)

val backoff_delay_ms : base:int -> attempt:int -> job_id:int -> int
(** Delay before retry number [attempt] (1-based count of failures so
    far) of [job_id]: [base * 2^(attempt-1)] plus a deterministic jitter
    in [0, base) derived from [(job_id, attempt)] — reproducible
    schedules, no thundering herd. *)

(** {1 The retry queue} *)

type 'a queue
(** Work ready to run, in FIFO order, plus work backing off until a due
    time. *)

val queue : 'a list -> 'a queue
val push : 'a queue -> 'a -> unit
val delay : 'a queue -> 'a -> at:float -> unit

val undelay : 'a queue -> 'a -> unit
(** Drop delayed work equal to the given value. *)

val promote : ?into:('a -> unit) -> 'a queue -> float -> unit
(** [promote q now] moves the delayed work now due, oldest first, to the
    back of the ready queue, or hands it to [into]. *)

val queued : 'a queue -> int
(** Ready plus delayed work. *)

val to_list : 'a queue -> 'a list
(** Ready work in order, then delayed work oldest first. *)

(** {1 Checkpoints} *)

val write_ckpt : kind:string -> meta:string -> string -> 'a -> unit
(** [write_ckpt ~kind ~meta path v] installs [v] at [path] as a
    CRC-framed two-generation {!Snapshot} of [kind]. *)

val load_ckpt : kind:string -> reject:(string -> exn) -> string -> 'a * bool
(** Read back what {!write_ckpt} wrote (the caller annotates the type),
    and whether it came from the last-good [.prev] generation.  An
    unreadable file, a wrong kind or a payload that does not unmarshal
    raises [reject msg], so each front end keeps its own exception and
    exit code. *)

(** {1 The session} *)

type ckpt

type session = private {
  out : out_channel option;  (** the JSONL stream *)
  scratch : string;  (** per-run scratch directory *)
  drain : bool ref;  (** set by SIGTERM/SIGINT, or by the front end *)
  wake : Runner.wake;  (** the drain signals' wake-up pipe *)
  ckpt : ckpt;  (** the checkpoint's write throttle *)
}

val open_session :
  name:string -> stdout:bool -> checkpoint:string option -> string option -> session
(** [open_session ~name ~stdout ~checkpoint out] opens [out] in append
    mode (an interrupted run's file plus its resume's file concatenate
    into the full result set), or streams to stdout when [out] is [None]
    and [stdout] holds.  It makes the scratch directory
    [$TMPDIR/weakord-NAME-PID] and installs {!Runner.wake_on_drain}. *)

val touch : session -> unit
(** Mark the checkpoint out of date.  A loop that {!save}s every turn
    and sleeps no later than the next due write keeps it at most 0.25 s
    behind. *)

val save : ?force:bool -> session -> (string -> unit) -> unit
(** [save s write] calls [write path] for the checkpoint path, if any,
    when [force] holds, or when the checkpoint is out of date and was
    last written over 0.25 s ago. *)

val emit : session -> string -> unit
(** Write one JSONL line and flush it. *)

val scratch_file : session -> string -> string

val supervise :
  session -> (string -> unit) -> finally:(unit -> unit) -> (unit -> unit) -> unit
(** [supervise s write ~finally loop] runs [loop], forces a last
    checkpoint write (also when [loop] raises), runs [finally], restores
    the signal handlers, closes the stream and removes the scratch
    directory. *)

(** {1 The worker pool}

    Batch workers and fleet shards are persistent workers
    ({!Runner.fork_persistent}), each forked the first time work needs
    its slot.  The pool is the only caller of {!Runner.send},
    {!Runner.receive}, {!Runner.retire} and {!Runner.kill}.

    {b The hang rule.}  Each slot has a heartbeat in shared memory: the
    unit its worker started and when.  The supervisor beats a slot when
    it dispatches, and a worker may beat its own slot as it goes: a
    fleet shard beats once per seed, a batch worker never does.  A busy
    worker whose heartbeat is older than the pool's budget is SIGKILLed
    once and reported [hung].  So a batch job is convicted at dispatch
    plus [--timeout], and a fleet shard when one seed outlasts
    [--hang-timeout]. *)

type 'a pool
(** Workers whose busy members carry work of type ['a]. *)

type member

type 'a busy = private {
  work : 'a;
  member : member;
  started : float;  (** when the work was dispatched *)
  mutable term_sent : bool;
  mutable hung : bool;  (** SIGKILLed by the hang rule *)
}

val pool :
  session ->
  size:int ->
  hang_s:float ->
  (slot:int -> siblings:Runner.worker list -> beat:(int -> unit) -> Runner.worker) ->
  'a pool
(** [pool s ~size ~hang_s fork] keeps at most [size] workers, with
    [hang_s] as the heartbeat budget.  [fork ~slot ~siblings ~beat]
    forks a worker for [slot]; it passes [siblings] on to
    {!Runner.fork_persistent}, and [beat u] records unit [u] in the
    worker's slot. *)

val busy : 'a pool -> 'a busy list
val pid : 'a busy -> int

val beat_unit : 'a pool -> 'a busy -> int
(** The unit last beaten into the worker's slot; [-1] before the
    worker's first beat. *)

val dispatch : 'a pool -> 'a -> string -> 'a busy
(** [dispatch p work req] sends [req] to an idle worker, or to one forked
    for the lowest free slot, and beats its slot.  A worker that died
    idle costs the work nothing: the request goes to a fresh fork. *)

type verdict =
  | Busy  (** a partial reply: the worker keeps its work *)
  | Idle  (** the work is done: the worker waits for more *)
  | Kill  (** a reply the caller rejects: SIGKILL the worker *)

val run_pool :
  session ->
  (string -> unit) ->
  'a pool ->
  'b queue ->
  log:(string -> unit) ->
  nouns:string * string ->
  check:(float -> unit) ->
  deadline:(unit -> float) ->
  start:('b -> unit) ->
  ?before_wait:(unit -> Unix.file_descr list * Unix.file_descr list) ->
  ?after_wait:(Unix.file_descr list -> Unix.file_descr list -> unit) ->
  ?finally:(unit -> unit) ->
  reply:('a busy -> string -> verdict) ->
  lost:('a busy -> Unix.process_status option -> unit) ->
  unit ->
  unit
(** [run_pool s write p q ...] is the batch and fleet event loop,
    under {!supervise}.  While work is in flight, or queued and no drain
    is on, each turn:
    - calls [check now], which may set the drain flag;
    - on drain, logs ["draining: N worker(s) in flight, M job(s)
      queued"] once (with [nouns]), then sends EOF to the idle workers
      and SIGTERM once to each busy one;
    - applies the hang rule, promotes due retries, and hands ready work
      to [start] ({!dispatch}, or settle it) while the pool has room and
      no drain is on;
    - {!save}s the checkpoint;
    - sleeps until a reply pipe, a descriptor from [before_wait] or a
      drain signal speaks, or the next conviction, backoff expiry,
      checkpoint write or [deadline ()] (ignored once draining) falls
      due;
    - passes each whole reply to [reply], each dead worker to [lost]
      ([None] when killed for a reply that failed its CRC or kind), and
      the ready caller descriptors to [after_wait].
    Workers that die idle are re-forked on demand.  At the end the idle
    workers are retired, the busy ones killed, and [finally] runs. *)

(** {1 The per-job policy}

    A verification job fares the same under batch and the daemon: probe
    the cache by exact key, then by symmetry key; run a worker on a
    miss; stream a verdict, or a quarantine record once [retries]
    attempts failed; requeue a failed attempt with backoff. *)

type job = {
  job : Job.t;
  mat : Runner.mat;
  mutable attempts : int;  (** failed attempts so far *)
  mutable last_reason : string;
  mutable last_stderr : string;
}

val job : model:Worker.model -> Job.t -> job
(** A fresh job state, materialized ({!Runner.materialize}). *)

type policy = private {
  cache : Verdict_cache.t;
  retries : int;
  backoff_ms : int;
  timeout_s : float;
  model_name : string;
  log : string -> unit;
  verbose : bool;
  record : job -> string -> unit;
  requeue : job -> at:float -> unit;
  mutable completed : int;  (** verdicts streamed *)
  mutable violations : int;
  mutable served_from_cache : int;
  mutable sym_dedup : int;  (** cache hits through the symmetry key only *)
  mutable states : int;  (** states expanded by verdicts not from the cache *)
  mutable quarantined : job list;  (** newest first *)
}

val policy :
  cache:Verdict_cache.t ->
  retries:int ->
  backoff_ms:int ->
  timeout_s:float ->
  model:Worker.model ->
  log:(string -> unit) ->
  verbose:bool ->
  record:(job -> string -> unit) ->
  requeue:(job -> at:float -> unit) ->
  policy
(** [record js line] takes each terminal JSONL record; [requeue js ~at]
    each failed attempt to retry at [at]. *)

val ms_since : float -> float
(** Milliseconds from an absolute time to now. *)

val admit : policy -> job -> bool
(** Settle a job without a worker when possible: an unusable job is
    quarantined, a cache hit streams its verdict.  [true] when a worker
    must run it. *)

val finish : policy -> job -> Verdict_cache.verdict -> cached:bool -> ms:float -> unit
(** Cache a verdict under both keys, count it, log a violation and
    stream its record. *)

val exited :
  policy ->
  job ->
  Unix.process_status option ->
  hung:bool ->
  started:float ->
  stderr:string ->
  clean:(unit -> unit) ->
  cancelled:(unit -> unit) ->
  unit
(** Classify the exit status of an attempt started at [started], whose
    stderr capture is [stderr] ([None]: killed for a corrupt reply, as
    {!run_pool}'s [lost] reports it): exit [0] calls [clean], exit [9]
    [cancelled], and anything else is a failed attempt ({!failed}); a
    [hung] worker's signal reads ["timeout: SIGKILL after …"]. *)

val failed : policy -> job -> reason:string -> stderr:string -> started:float -> unit
(** Count a failed attempt: quarantine when the retries are spent, else
    requeue with backoff. *)
