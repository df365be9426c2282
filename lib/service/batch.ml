(* The batch supervisor: a pool of persistent workers under one event
   loop.

   Process architecture: the supervisor forks at most [cfg.workers]
   worker processes, each the first time a job needs its slot, and does
   no verification itself.  A worker is forked after every job is
   materialized, so it already holds them all: the supervisor sends it a
   job id on its request pipe, and the worker answers with the verdict
   as one CRC-framed reply on its reply pipe, then waits for the next
   id.  A worker never touches the parent's channels, cache, or
   checkpoint.  All parent-side state transitions happen in one thread,
   in the reply/dispatch loop, so there is no locking anywhere.  The
   reply pipe is also the worker's exit channel: the loop sleeps until a
   reply or a death arrives on one, a drain signal arrives, or the next
   deadline falls due.

   The failure matrix the loop implements:

     valid reply (CRC, kind, verdict)     -> verdict (cache + JSONL);
                                             the worker waits for more
     reply failing its CRC or kind        -> SIGKILL, failed attempt
     EOF + exit 9                         -> cancelled (drain): job stays
                                             pending for the resume
     EOF + any other exit / any signal    -> failed attempt (a partial
                                             reply is dropped)
     wall-clock past cfg.timeout_s        -> SIGKILL, failed attempt
     attempts exhausted                   -> quarantine with stderr tail
     EOF from an idle worker              -> the slot is empty again

   A killed or dead worker's slot is re-forked when a job next needs it.
   Failed attempts requeue with exponential backoff plus deterministic
   jitter; quarantined jobs keep the batch going (exit code 4, not a
   crash).  SIGTERM/SIGINT (or the deadline) starts a drain: dispatch
   stops, busy workers get SIGTERM (their exploration stops at a safe
   point via the rcfg cancel hook), idle ones get EOF on their request
   pipe, and the queue state is checkpointed so --resume picks up
   exactly the unfinished jobs.  Every worker is reaped before [run]
   returns. *)

type cfg = {
  out : string option;
  workers : int;
  timeout_s : float;
  retries : int;
  backoff_ms : int;
  cache : Verdict_cache.t;
  checkpoint : string option;
  resume : string option;
  deadline_s : float option;
  model : Worker.model;
  fuel : int option;
  spill_dir : string option;
  mem_budget : int option;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    out = None;
    workers = 4;
    timeout_s = 10.;
    retries = 3;
    backoff_ms = 100;
    cache = Verdict_cache.in_memory ();
    checkpoint = None;
    resume = None;
    deadline_s = None;
    model = Worker.Drf0;
    fuel = None;
    spill_dir = None;
    mem_budget = None;
    log = ignore;
    verbose = false;
  }

type quarantined = {
  q_job : Job.t;
  q_attempts : int;
  q_reason : string;
  q_stderr : string;
}

type summary = {
  total : int;
  completed : int;
  ok : int;
  violations : int;
  quarantined : quarantined list;
  quarantined_total : int;
  pending : int;
  served_from_cache : int;
  sym_dedup : int;
  cache : Verdict_cache.stats;
  suspended : bool;
  wall_s : float;
}

exception Resume_rejected of string

let exit_code s =
  if s.suspended then 3
  else if s.violations > 0 then 1
  else if s.quarantined_total > 0 then 4
  else 0

(* Deterministic jitter: a SplitMix64-style scramble of (job_id,
   attempt), reduced mod base.  Same schedule on every run — a retry
   storm never synchronizes, and a reproduction run backs off exactly
   like the original. *)
let backoff_delay_ms ~base ~attempt ~job_id =
  if base <= 0 then 0
  else
    let z =
      Int64.mul
        (Int64.add
           (Int64.mul (Int64.of_int job_id) 0x9E3779B97F4A7C15L)
           (Int64.of_int attempt))
        0xBF58476D1CE4E5B9L
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let jitter = Int64.to_int (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int base)) in
    (base * (1 lsl min (attempt - 1) 16)) + jitter

(* JSONL rendering and the worker machinery live in [Runner], shared
   with the fleet and the socket daemon; this file keeps only the
   scheduling policy (queues, retries, drain, checkpoint). *)

let quarantine_record q ~ms =
  Runner.quarantine_record q.q_job ~reason:q.q_reason ~stderr:q.q_stderr
    ~attempts:q.q_attempts ~ms

(* --- checkpoint -------------------------------------------------------------- *)

let ckpt_kind = "weakord.batch"

type ckpt = {
  c_fingerprint : string;
  c_model : string;
  c_emitted : int list;  (** final records already streamed *)
  c_attempts : (int * int) list;  (** unfinished jobs: id, failed attempts *)
  c_completed : int;
  c_violations : int;
  c_quarantined : int;
}

let write_ckpt path ck =
  Snapshot.write_file path
    (Snapshot.frame ~kind:ckpt_kind
       ~meta:
         (Printf.sprintf "%d emitted, %d quarantined"
            (List.length ck.c_emitted) ck.c_quarantined)
       ~payload:(Marshal.to_string ck []))

let load_ckpt path =
  match Snapshot.load path with
  | Error (e, _) ->
      raise
        (Resume_rejected
           (Printf.sprintf "%s: %s" path (Snapshot.error_string e)))
  | Ok { Snapshot.container = c; recovered } ->
      if not (String.equal c.Snapshot.kind ckpt_kind) then
        raise
          (Resume_rejected
             (Printf.sprintf "%s holds a %S snapshot, expected %S" path
                c.Snapshot.kind ckpt_kind));
      (match (Marshal.from_string c.Snapshot.payload 0 : ckpt) with
      | ck -> (ck, recovered)
      | exception (Failure _ | Invalid_argument _) ->
          raise
            (Resume_rejected
               (path ^ ": checkpoint payload does not unmarshal")))

(* --- job materialization ----------------------------------------------------- *)

type jstate = {
  job : Job.t;
  prog : (Prog.t * string * string) option;
      (** program + cache key + symmetry key; [None] = wedge *)
  mat_error : string option;
  mutable attempts : int;
  mutable eligible_at : float;
  mutable last_reason : string;
  mutable last_stderr : string;
}

let materialize model (j : Job.t) =
  let m = Runner.materialize ~model j in
  {
    job = j;
    prog = m.Runner.m_prog;
    mat_error = m.Runner.m_error;
    attempts = 0;
    eligible_at = 0.;
    last_reason = "";
    last_stderr = "";
  }

(* --- the supervisor loop ----------------------------------------------------- *)

type running = {
  r_js : jstate;
  r_w : Runner.worker;
  r_started : float;
  r_stderr : string;
  mutable r_timed_out : bool;
  mutable r_term_sent : bool;
}

let run cfg jobs =
  if cfg.workers < 1 then invalid_arg "Batch.run: workers must be >= 1";
  if cfg.retries < 1 then invalid_arg "Batch.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let fingerprint = Job.fingerprint jobs in
  let model_name = Worker.model_name cfg.model in
  (* Resume: restore the emitted set and attempt counters, after
     validating that the checkpoint matches this job list and model. *)
  let resumed =
    match cfg.resume with
    | None -> None
    | Some path ->
        let ck, recovered = load_ckpt path in
        if not (String.equal ck.c_fingerprint fingerprint) then
          raise
            (Resume_rejected
               "checkpoint was taken over a different job list (fingerprints \
                differ)");
        if not (String.equal ck.c_model model_name) then
          raise
            (Resume_rejected
               (Printf.sprintf
                  "checkpoint was taken under model %s, this run uses %s"
                  ck.c_model model_name));
        cfg.log
          (Printf.sprintf
             "resuming batch: %d/%d job(s) already finished%s"
             (List.length ck.c_emitted) (List.length jobs)
             (if recovered then
                " (recovered from the last-good .prev generation)"
              else ""));
        Some ck
  in
  let emitted = Hashtbl.create 1024 in
  (match resumed with
  | Some ck -> List.iter (fun id -> Hashtbl.replace emitted id ()) ck.c_emitted
  | None -> ());
  let states =
    List.filter_map
      (fun j ->
        if Hashtbl.mem emitted j.Job.id then None
        else Some (materialize cfg.model j))
      jobs
  in
  (* Every unfinished job's state, by id: the checkpoint reads attempt
     counters here wherever the job is queued or running. *)
  let by_id = Hashtbl.create 1024 in
  List.iter (fun js -> Hashtbl.replace by_id js.job.Job.id js) states;
  (match resumed with
  | Some ck ->
      List.iter
        (fun (id, a) ->
          match Hashtbl.find_opt by_id id with
          | Some js -> js.attempts <- a
          | None -> ())
        ck.c_attempts
  | None -> ());
  (* Output stream: append mode, so an interrupted run's file plus its
     resume's file concatenate into the full result set. *)
  let out_ch, close_out_ch =
    match cfg.out with
    | None -> (Stdlib.stdout, fun () -> flush Stdlib.stdout)
    | Some p ->
        let ch = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p in
        (ch, fun () -> close_out ch)
  in
  let emit line =
    output_string out_ch line;
    output_char out_ch '\n';
    flush out_ch
  in
  (* Scratch area for the workers' stderr captures. *)
  let scratch =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "weakord-batch-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let stderr_path id = Filename.concat scratch (Printf.sprintf "job%d.stderr" id) in
  (* Drain signal: first SIGTERM/SIGINT flips the flag and wakes the
     loop, which does the rest at a safe point.  Handlers are restored
     before we return (the in-process test harness runs many batches
     per process). *)
  let drain = ref false in
  let wake = Runner.wake_on_drain drain in
  (* Mutable tallies; prior-run numbers fold in so exit codes reflect
     the whole batch, not just the post-resume tail. *)
  let completed = ref 0 and ok = ref 0 and violations = ref 0 in
  let served_from_cache = ref 0 in
  let sym_dedup = ref 0 in
  let quarantined = ref [] in
  let prior =
    match resumed with
    | Some ck -> (ck.c_completed, ck.c_violations, ck.c_quarantined)
    | None -> (0, 0, 0)
  in
  let ready : jstate Queue.t = Queue.create () in
  (* Backing-off jobs, newest first. *)
  let delayed : jstate list ref = ref [] in
  List.iter (fun js -> Queue.add js ready) states;
  let running : running list ref = ref [] in
  (* Live workers with no job.  A slot with no live worker is forked
     when a job next needs it. *)
  let idle : Runner.worker list ref = ref [] in
  let last_ckpt = ref 0. in
  let save_ckpt ~force () =
    match cfg.checkpoint with
    | None -> ()
    | Some path ->
        let now = Unix.gettimeofday () in
        if force || now -. !last_ckpt > 0.25 then begin
          last_ckpt := now;
          let unfinished =
            List.filter
              (fun j -> not (Hashtbl.mem emitted j.Job.id))
              jobs
          in
          let attempts_of id =
            match Hashtbl.find_opt by_id id with
            | Some js -> js.attempts
            | None -> 0
          in
          let pc, pv, pq = prior in
          write_ckpt path
            {
              c_fingerprint = fingerprint;
              c_model = model_name;
              c_emitted =
                Hashtbl.fold (fun id () acc -> id :: acc) emitted []
                |> List.sort compare;
              c_attempts =
                List.map (fun j -> (j.Job.id, attempts_of j.Job.id)) unfinished;
              c_completed = pc + !completed;
              c_violations = pv + !violations;
              c_quarantined = pq + List.length !quarantined;
            }
        end
  in
  let mark_emitted id =
    Hashtbl.replace emitted id ();
    save_ckpt ~force:false ()
  in
  let finish_verdict js v ~cached ~ms =
    (match js.prog with
    | Some (_, key, skey) ->
        Verdict_cache.add cfg.cache key v;
        Verdict_cache.add cfg.cache skey v
    | None -> ());
    incr completed;
    if v.Verdict_cache.v_violation then begin
      incr violations;
      cfg.log
        (Printf.sprintf "VIOLATION %s: %d outcome(s) beyond SC under %s"
           (Job.label js.job)
           (List.length v.Verdict_cache.v_outcomes)
           model_name)
    end
    else incr ok;
    if cached then incr served_from_cache;
    emit
      (Runner.verdict_record js.job v ~cached ~attempts:(js.attempts + 1) ~ms);
    mark_emitted js.job.Job.id
  in
  let quarantine js ~ms =
    let q =
      {
        q_job = js.job;
        q_attempts = js.attempts;
        q_reason = js.last_reason;
        q_stderr = js.last_stderr;
      }
    in
    quarantined := q :: !quarantined;
    cfg.log
      (Printf.sprintf "QUARANTINED %s after %d attempt(s): %s"
         (Job.label js.job) js.attempts js.last_reason);
    emit (quarantine_record q ~ms);
    mark_emitted js.job.Job.id
  in
  let requeue js =
    let delay =
      backoff_delay_ms ~base:cfg.backoff_ms ~attempt:js.attempts
        ~job_id:js.job.Job.id
    in
    js.eligible_at <- Unix.gettimeofday () +. (float_of_int delay /. 1000.);
    delayed := js :: !delayed;
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "retrying %s in %d ms (attempt %d/%d: %s)"
           (Job.label js.job) delay (js.attempts + 1) cfg.retries
           js.last_reason)
  in
  let attempt_failed r reason =
    let js = r.r_js in
    js.attempts <- js.attempts + 1;
    js.last_reason <- reason;
    js.last_stderr <- Runner.read_tail r.r_stderr;
    if js.attempts >= cfg.retries then
      quarantine js ~ms:((Unix.gettimeofday () -. r.r_started) *. 1000.)
    else requeue js
  in
  let handle_exit r status =
    match status with
    | Unix.WEXITED 0 -> attempt_failed r "worker exited 0 without a reply"
    | Unix.WEXITED 9 ->
        (* Drain cancellation: not a failure — the job goes back to the
           queue untouched and lands in the resume checkpoint. *)
        if cfg.verbose then
          cfg.log (Printf.sprintf "%s cancelled at a safe point" (Job.label r.r_js.job));
        Queue.add r.r_js ready
    | Unix.WEXITED n -> attempt_failed r (Printf.sprintf "worker exited %d" n)
    | Unix.WSIGNALED _ when r.r_timed_out ->
        attempt_failed r
          (Printf.sprintf "timeout: SIGKILL after %.1fs" cfg.timeout_s)
    | Unix.WSIGNALED s ->
        attempt_failed r
          (Printf.sprintf "worker killed by %s" (Runner.signal_name s))
    | Unix.WSTOPPED _ -> (* not requested (no WUNTRACED) *)
        attempt_failed r "worker stopped unexpectedly"
  in
  (* A reply ends the attempt and frees the worker; a death or a corrupt
     reply ends both. *)
  let on_event r = function
    | Runner.Nothing -> true
    | Runner.Reply payload ->
        idle := r.r_w :: !idle;
        (match Runner.verdict_of_payload payload with
        | Some v ->
            finish_verdict r.r_js v ~cached:false
              ~ms:((Unix.gettimeofday () -. r.r_started) *. 1000.)
        | None -> attempt_failed r "worker reply does not unmarshal");
        false
    | Runner.Died status ->
        handle_exit r status;
        false
    | Runner.Corrupt ->
        attempt_failed r "worker reply failed its CRC or kind";
        false
  in
  let exec =
    {
      Runner.x_model = cfg.model;
      x_fuel = cfg.fuel;
      x_spill_dir = cfg.spill_dir;
      x_mem_budget = cfg.mem_budget;
    }
  in
  let lookup id =
    let js = Hashtbl.find by_id id in
    (js.job, { Runner.m_prog = js.prog; m_error = js.mat_error }, stderr_path id)
  in
  let fork () =
    flush out_ch;
    let siblings = !idle @ List.map (fun r -> r.r_w) !running in
    let w = Runner.fork_job_worker exec ~siblings lookup in
    if cfg.verbose then cfg.log (Printf.sprintf "worker %d forked" w.Runner.pid);
    w
  in
  (* A worker that died idle fails its send; that costs the job no
     attempt, only a fresh fork.  A fresh worker's failed send shows up
     as its death. *)
  let rec dispatch id =
    let w, fresh =
      match !idle with
      | [] -> (fork (), true)
      | w :: rest ->
          idle := rest;
          (w, false)
    in
    if Runner.send w id || fresh then w
    else begin
      ignore (Runner.retire w : Unix.process_status);
      dispatch id
    end
  in
  let spawn js =
    let w = dispatch (string_of_int js.job.Job.id) in
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "worker %d started %s (attempt %d/%d)"
           w.Runner.pid (Job.label js.job) (js.attempts + 1) cfg.retries);
    running :=
      {
        r_js = js;
        r_w = w;
        r_started = Unix.gettimeofday ();
        r_stderr = stderr_path js.job.Job.id;
        r_timed_out = false;
        r_term_sent = false;
      }
      :: !running
  in
  let retire_idle () =
    List.iter (fun w -> ignore (Runner.retire w : Unix.process_status)) !idle;
    idle := []
  in
  let deadline_at = Option.map (fun d -> t0 +. d) cfg.deadline_s in
  let drain_announced = ref false in
  let finally () =
    (* No worker outlives the batch: idle ones exit on EOF, and busy
       ones (left only by an exception) are killed. *)
    retire_idle ();
    List.iter (fun r -> Runner.kill r.r_w) !running;
    Runner.restore wake;
    close_out_ch ();
    (* Best-effort scratch cleanup; captured stderr of quarantined jobs
       already lives in their records. *)
    (match Sys.readdir scratch with
    | files ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat scratch f) with Sys_error _ -> ())
          files;
        (try Unix.rmdir scratch with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ())
  in
  (* The loop never polls: it sleeps in [Runner.sleep_until] until a
     worker's reply pipe speaks (a reply, or EOF at its death), a drain
     signal arrives, or the earliest deadline falls due — a running
     worker's timeout, a delayed job's backoff expiry, or the batch
     deadline. *)
  let next_deadline () =
    let t =
      List.fold_left
        (fun t r ->
          if r.r_timed_out then t
          else Float.min t (r.r_started +. cfg.timeout_s))
        infinity !running
    in
    let t = List.fold_left (fun t js -> Float.min t js.eligible_at) t !delayed in
    match deadline_at with
    | Some d when not !drain -> Float.min t d
    | _ -> t
  in
  (try
     let continue () =
       !running <> []
       || ((not !drain)
          && ((not (Queue.is_empty ready)) || !delayed <> []))
     in
     while continue () do
       let now = Unix.gettimeofday () in
       (* Deadline is just a self-inflicted drain. *)
       (match deadline_at with
       | Some d when (not !drain) && now > d ->
           drain := true;
           cfg.log "batch deadline reached; draining"
       | _ -> ());
       (* Drain: forward SIGTERM once to every busy worker, and EOF to
          the idle ones. *)
       if !drain then begin
         retire_idle ();
         if not !drain_announced then begin
           drain_announced := true;
           cfg.log
             (Printf.sprintf
                "draining: %d worker(s) in flight, %d job(s) queued"
                (List.length !running)
                (Queue.length ready + List.length !delayed))
         end;
         List.iter
           (fun r ->
             if not r.r_term_sent then begin
               r.r_term_sent <- true;
               try Unix.kill r.r_w.Runner.pid Sys.sigterm
               with Unix.Unix_error _ -> ()
             end)
           !running
       end;
       (* Timeouts: SIGKILL, then let the reply pipe's EOF report it. *)
       List.iter
         (fun r ->
           if (not r.r_timed_out) && now -. r.r_started > cfg.timeout_s
           then begin
             r.r_timed_out <- true;
             try Unix.kill r.r_w.Runner.pid Sys.sigkill
             with Unix.Unix_error _ -> ()
           end)
         !running;
       (* Promote delayed jobs whose backoff expired, oldest first. *)
       let due, later =
         List.partition (fun js -> js.eligible_at <= now) !delayed
       in
       delayed := later;
       List.iter (fun js -> Queue.add js ready) (List.rev due);
       (* Dispatch. *)
       while
         (not !drain)
         && List.length !running < cfg.workers
         && not (Queue.is_empty ready)
       do
         let js = Queue.pop ready in
         match js.mat_error with
         | Some e ->
             (* Unreproducible source: retrying cannot help — straight
                to quarantine, batch keeps going. *)
             js.last_reason <- "unusable job: " ^ e;
             js.attempts <- cfg.retries;
             quarantine js ~ms:0.
         | None -> (
             match js.prog with
             | Some (_, key, skey) -> (
                 match Verdict_cache.find cfg.cache key with
                 | Some v -> finish_verdict js v ~cached:true ~ms:0.
                 | None -> (
                     (* Exact text never verified — but a renaming of it
                        may have been: the symmetry key answers with the
                        class representative's verdict (identical up to
                        the names inside v_outcomes strings). *)
                     match Verdict_cache.find cfg.cache skey with
                     | Some v ->
                         incr sym_dedup;
                         finish_verdict js v ~cached:true ~ms:0.
                     | None -> spawn js))
             | None -> (* wedge: never cached *) spawn js)
       done;
       (* Sleep until something happens, then read the reply pipes that
          spoke: a reply frees its worker, an EOF reaps it. *)
       if continue () then begin
         let ready_fds, _ =
           Runner.sleep_until wake (next_deadline ())
             (List.map (fun (w : Runner.worker) -> w.rsp)
                (!idle @ List.map (fun r -> r.r_w) !running))
             []
         in
         let spoke (w : Runner.worker) = List.mem w.rsp ready_fds in
         idle := List.filter (fun w -> (not (spoke w)) || Runner.idle_alive w) !idle;
         running :=
           List.filter
             (fun r -> (not (spoke r.r_w)) || on_event r (Runner.receive r.r_w))
             !running
       end
     done;
     save_ckpt ~force:true ()
   with e ->
     (try save_ckpt ~force:true () with _ -> ());
     finally ();
     raise e);
  finally ();
  let pending =
    Queue.length ready + List.length !delayed + List.length !running
  in
  let pc, pv, pq = prior in
  {
    total = List.length jobs;
    completed = pc + !completed;
    ok = !ok;
    violations = pv + !violations;
    quarantined = List.rev !quarantined;
    quarantined_total = pq + List.length !quarantined;
    pending;
    served_from_cache = !served_from_cache;
    sym_dedup = !sym_dedup;
    cache = Verdict_cache.stats cfg.cache;
    suspended = !drain && pending > 0;
    wall_s = Unix.gettimeofday () -. t0;
  }

let pp_summary ppf s =
  let c = s.cache in
  Format.fprintf ppf
    "batch: %d job(s): %d finished (%d ok, %d violation(s), %d quarantined, \
     %d pending), %d served from cache (%d via symmetry, %.0f%%)@\n\
     cache: %d hit(s), %d miss(es), %d corrupt record(s) skipped, %d \
     appended, %d entrie(s)@\n\
     wall %.1fs, %.1f job(s)/s%s"
    s.total s.completed s.ok s.violations s.quarantined_total s.pending
    s.served_from_cache s.sym_dedup
    (if s.completed > 0 then
       100. *. float_of_int s.sym_dedup /. float_of_int s.completed
     else 0.)
    c.Verdict_cache.hits c.Verdict_cache.misses
    c.Verdict_cache.corrupt_skipped c.Verdict_cache.appended
    c.Verdict_cache.entries s.wall_s
    (if s.wall_s > 0. then float_of_int s.completed /. s.wall_s else 0.)
    (if s.suspended then " — SUSPENDED (resume with --resume)" else "")
