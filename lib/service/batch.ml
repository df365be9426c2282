(* The batch supervisor: a job file over [Supervise.run_pool].

   A worker is forked after every job is materialized, so it already
   holds them all: the supervisor sends it a job id on its request pipe,
   and the worker answers with the verdict as one CRC-framed reply.  A
   worker never touches the parent's channels, cache, or checkpoint.
   The failure matrix:

     valid reply (CRC, kind, verdict)     -> verdict (cache + JSONL);
                                             the worker waits for more
     reply failing its CRC or kind        -> SIGKILL, failed attempt
     EOF + exit 9                         -> cancelled (drain): job stays
                                             pending for the resume
     EOF + any other exit / any signal    -> failed attempt (a partial
                                             reply is dropped)
     dispatched more than cfg.timeout_s   -> SIGKILL (the pool's hang
       ago                                   rule), failed attempt
     attempts exhausted                   -> quarantine with stderr tail

   The pool, the retry queue, the checkpoint and the per-job policy are
   [Supervise]'s, shared with the fleet and the daemon; this file keeps
   the job list, the resume validation and the summary. *)

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

(* --- the supervisor loop ----------------------------------------------------- *)

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
        let (ck : ckpt), recovered =
          Supervise.load_ckpt ~kind:ckpt_kind
            ~reject:(fun m -> Resume_rejected m)
            path
        in
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
        else Some (Supervise.job ~model:cfg.model j))
      jobs
  in
  (* Every unfinished job's state, by id: the checkpoint reads attempt
     counters here wherever the job is queued or running. *)
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (js : Supervise.job) -> Hashtbl.replace by_id js.job.Job.id js) states;
  (match resumed with
  | Some ck ->
      List.iter
        (fun (id, a) ->
          match Hashtbl.find_opt by_id id with
          | Some (js : Supervise.job) -> js.attempts <- a
          | None -> ())
        ck.c_attempts
  | None -> ());
  (* Prior-run numbers fold in so exit codes reflect the whole batch,
     not just the post-resume tail. *)
  let pc, pv, pq =
    match resumed with
    | Some ck -> (ck.c_completed, ck.c_violations, ck.c_quarantined)
    | None -> (0, 0, 0)
  in
  let s = Supervise.open_session ~name:"batch" ~stdout:true ~checkpoint:cfg.checkpoint cfg.out in
  let drain = s.Supervise.drain in
  let stderr_path id = Supervise.scratch_file s (Printf.sprintf "job%d.stderr" id) in
  let q = Supervise.queue states in
  let p =
    Supervise.policy ~cache:cfg.cache ~retries:cfg.retries
      ~backoff_ms:cfg.backoff_ms ~timeout_s:cfg.timeout_s ~model:cfg.model
      ~log:cfg.log ~verbose:cfg.verbose
      ~record:(fun js line ->
        Supervise.emit s line;
        Hashtbl.replace emitted js.job.Job.id ();
        Supervise.touch s)
      ~requeue:(fun js ~at ->
        Supervise.delay q js ~at;
        Supervise.touch s)
  in
  let write_ckpt path =
    Supervise.write_ckpt ~kind:ckpt_kind
      ~meta:
        (Printf.sprintf "%d emitted, %d quarantined" (Hashtbl.length emitted)
           (pq + List.length p.quarantined))
      path
      {
        c_fingerprint = fingerprint;
        c_model = model_name;
        c_emitted =
          Hashtbl.fold (fun id () acc -> id :: acc) emitted [] |> List.sort compare;
        c_attempts =
          List.filter_map
            (fun (js : Supervise.job) ->
              let id = js.job.Job.id in
              if Hashtbl.mem emitted id then None else Some (id, js.attempts))
            states;
        c_completed = pc + p.completed;
        c_violations = pv + p.violations;
        c_quarantined = pq + List.length p.quarantined;
      }
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
    let (js : Supervise.job) = Hashtbl.find by_id id in
    (js.job, js.mat, stderr_path id)
  in
  (* A batch worker never beats its slot, so the pool's hang rule
     convicts it at dispatch + timeout_s. *)
  let pool =
    Supervise.pool s ~size:cfg.workers ~hang_s:cfg.timeout_s
      (fun ~slot:_ ~siblings ~beat:_ ->
        let w = Runner.fork_job_worker exec ~siblings lookup in
        if cfg.verbose then cfg.log (Printf.sprintf "worker %d forked" w.Runner.pid);
        w)
  in
  let spawn (js : Supervise.job) =
    let b = Supervise.dispatch pool js (string_of_int js.job.Job.id) in
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "worker %d started %s (attempt %d/%d)" (Supervise.pid b)
           (Job.label js.job) (js.attempts + 1) cfg.retries)
  in
  (* A reply ends the attempt and frees the worker; a death or a corrupt
     reply ends both. *)
  let reply (b : Supervise.job Supervise.busy) payload =
    let js = b.work in
    (match Runner.verdict_of_payload payload with
    | Some v -> Supervise.finish p js v ~cached:false ~ms:(Supervise.ms_since b.started)
    | None ->
        Supervise.failed p js ~reason:"worker reply does not unmarshal"
          ~stderr:(stderr_path js.job.Job.id) ~started:b.started);
    Supervise.Idle
  in
  let lost (b : Supervise.job Supervise.busy) status =
    let js = b.work in
    let stderr = stderr_path js.job.Job.id in
    Supervise.exited p js status ~hung:b.hung ~started:b.started ~stderr
      ~clean:(fun () ->
        Supervise.failed p js ~reason:"worker exited 0 without a reply" ~stderr
          ~started:b.started)
      ~cancelled:(fun () ->
        (* Drain cancellation: not a failure — the job goes back to the
           queue untouched and lands in the resume checkpoint. *)
        Supervise.push q js)
  in
  let deadline_at = Option.fold ~none:infinity ~some:(fun d -> t0 +. d) cfg.deadline_s in
  Supervise.run_pool s write_ckpt pool q ~log:cfg.log ~nouns:("worker", "job")
    ~check:(fun now ->
      (* Deadline is just a self-inflicted drain. *)
      if (not !drain) && now > deadline_at then begin
        drain := true;
        cfg.log "batch deadline reached; draining"
      end)
    ~deadline:(fun () -> deadline_at)
    ~start:(fun js -> if Supervise.admit p js then spawn js)
    ~reply ~lost ();
  let pending = Supervise.queued q + List.length (Supervise.busy pool) in
  let quarantined =
    List.rev_map
      (fun (js : Supervise.job) ->
        {
          q_job = js.job;
          q_attempts = js.attempts;
          q_reason = js.last_reason;
          q_stderr = js.last_stderr;
        })
      p.quarantined
  in
  {
    total = List.length jobs;
    completed = pc + p.completed;
    ok = p.completed - p.violations;
    violations = pv + p.violations;
    quarantined;
    quarantined_total = pq + List.length quarantined;
    pending;
    served_from_cache = p.served_from_cache;
    sym_dedup = p.sym_dedup;
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
