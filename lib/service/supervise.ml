(* The supervision core under the service front ends.  Batch, fleet and
   the daemon each schedule their own unit of work (a job, a seed range,
   a ticket), but they wait, retry, checkpoint and stream the same way;
   that shared part lives here, once. *)

(* --- retry backoff ------------------------------------------------------------ *)

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

(* --- the retry queue ---------------------------------------------------------- *)

type 'a queue = { ready : 'a Queue.t; mutable delayed : ('a * float) list }

let queue xs =
  let q = { ready = Queue.create (); delayed = [] } in
  List.iter (fun x -> Queue.add x q.ready) xs;
  q

let push q x = Queue.add x q.ready
let pop q = Queue.take_opt q.ready
let delay q x ~at = q.delayed <- (x, at) :: q.delayed
let undelay q x = q.delayed <- List.filter (fun (y, _) -> y <> x) q.delayed

(* [delayed] is newest first, so the reversal promotes oldest first. *)
let promote ?into q now =
  let into = Option.value into ~default:(push q) in
  let due, later = List.partition (fun (_, at) -> at <= now) q.delayed in
  q.delayed <- later;
  List.iter (fun (x, _) -> into x) (List.rev due)

let next_due q = List.fold_left (fun t (_, at) -> Float.min t at) infinity q.delayed
let queued q = Queue.length q.ready + List.length q.delayed
let to_list q = List.of_seq (Queue.to_seq q.ready) @ List.rev_map fst q.delayed

(* --- checkpoints ------------------------------------------------------------- *)

let write_ckpt ~kind ~meta path v =
  Snapshot.write_file path
    (Snapshot.frame ~kind ~meta ~payload:(Marshal.to_string v []))

let load_ckpt ~kind ~reject path =
  match Snapshot.load path with
  | Error (e, _) ->
      raise (reject (Printf.sprintf "%s: %s" path (Snapshot.error_string e)))
  | Ok { Snapshot.container = c; recovered } -> (
      if not (String.equal c.Snapshot.kind kind) then
        raise
          (reject
             (Printf.sprintf "%s holds a %S snapshot, expected %S" path
                c.Snapshot.kind kind));
      match Marshal.from_string c.Snapshot.payload 0 with
      | ck -> (ck, recovered)
      | exception (Failure _ | Invalid_argument _) ->
          raise (reject (path ^ ": checkpoint payload does not unmarshal")))

type ckpt = {
  k_path : string option;
  mutable k_last : float;
  mutable k_dirty : bool;
}

(* --- scratch directories ------------------------------------------------------ *)

(* A session's scratch directory is [$TMPDIR/weakord-NAME-PID].  The
   session holds a [lockf] lock on the [session.lock] file in it for its
   whole life.  The kernel drops that lock when the process dies, however
   it dies, and the lock is seen from every PID namespace that shares the
   directory; a directory whose lock can be taken belongs to no live
   session. *)
let lock_file = "session.lock"
let session_names = [ "batch"; "fleet"; "daemon" ]

(* [path] itself, not what a symlink there points to, is a [kind] of
   ours. *)
let owned kind path =
  match Unix.lstat path with
  | st -> st.Unix.st_kind = kind && st.Unix.st_uid = Unix.getuid ()
  | exception Unix.Unix_error _ -> false

(* Remove a scratch directory and the regular files in it, never what a
   symlink in it points to.  Best-effort: what a quarantined job's stderr
   said is already in its record. *)
let remove_scratch dir =
  match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          if owned Unix.S_REG path then try Unix.unlink path with Unix.Unix_error _ -> ())
        files;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

(* A supervisor killed by SIGKILL never reaches [close_session], so its
   directory stays behind.  Each new session removes those of dead
   sessions: a directory of ours (not a symlink), named for a batch,
   fleet or daemon session of another PID, whose lock file (a regular
   file of ours) it can lock.  Its own PID is skipped: a process never
   conflicts with its own locks, and closing a descriptor of a file it
   holds locked would drop its lock. *)
let remove_stale_scratch tmp =
  let me = Unix.getpid () in
  let stale f =
    match String.split_on_char '-' f with
    | [ "weakord"; name; pid ] when List.mem name session_names -> (
        match int_of_string_opt pid with
        | Some p -> p > 0 && p <> me && string_of_int p = pid
        | None -> false)
    | _ -> false
  in
  let remove_unlocked dir =
    let lock = Filename.concat dir lock_file in
    if owned Unix.S_DIR dir && owned Unix.S_REG lock then
      match Unix.openfile lock [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
      | fd ->
          (match Unix.lockf fd Unix.F_TLOCK 0 with
          | () -> remove_scratch dir
          | exception Unix.Unix_error _ -> ());
          Unix.close fd
      | exception Unix.Unix_error _ -> ()
  in
  match Sys.readdir tmp with
  | names -> Array.iter (fun f -> if stale f then remove_unlocked (Filename.concat tmp f)) names
  | exception Sys_error _ -> ()

(* Make [tmp/base] with its lock taken.  The directory is built under a
   fresh staging name, which no sweep matches, and renamed into place
   with the lock already held, so no sweep ever sees it unlocked.  When
   [base] is taken (a directory left by a dead process of this PID, or
   anything that is not an empty directory of ours), the session keeps
   the staging name. *)
let claim_scratch tmp base =
  let staging = Filename.temp_dir ~temp_dir:tmp ~perms:0o755 (base ^ ".") ".new" in
  let lock =
    Unix.openfile (Filename.concat staging lock_file)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o600
  in
  Unix.lockf lock Unix.F_TLOCK 0;
  let dir = Filename.concat tmp base in
  match Unix.rename staging dir with
  | () -> (dir, lock)
  | exception Unix.Unix_error _ -> (staging, lock)

(* --- the session ------------------------------------------------------------- *)

type session = {
  out : out_channel option;
  scratch : string;
  lock : Unix.file_descr;
  drain : bool ref;
  wake : Runner.wake;
  ckpt : ckpt;
}

let touch s = s.ckpt.k_dirty <- true
let ckpt_period = 0.25

let save ?(force = false) s write =
  let k = s.ckpt in
  match k.k_path with
  | None -> ()
  | Some path ->
      let now = Unix.gettimeofday () in
      if force || (k.k_dirty && now -. k.k_last > ckpt_period) then begin
        k.k_last <- now;
        k.k_dirty <- false;
        write path
      end

let ckpt_due k =
  if k.k_dirty && k.k_path <> None then k.k_last +. ckpt_period else infinity

let open_session ~name ~stdout ~checkpoint out =
  let out =
    match out with
    | Some p -> Some (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p)
    | None -> if stdout then Some Stdlib.stdout else None
  in
  let tmp = Filename.get_temp_dir_name () in
  remove_stale_scratch tmp;
  let scratch, lock = claim_scratch tmp (Printf.sprintf "weakord-%s-%d" name (Unix.getpid ())) in
  let drain = ref false in
  {
    out;
    scratch;
    lock;
    drain;
    wake = Runner.wake_on_drain drain;
    ckpt = { k_path = checkpoint; k_last = 0.; k_dirty = false };
  }

let emit s line =
  Option.iter
    (fun ch ->
      output_string ch line;
      output_char ch '\n';
      flush ch)
    s.out

let scratch_file s name = Filename.concat s.scratch name

let close_session s =
  Runner.restore s.wake;
  (match s.out with
  | Some ch when ch == Stdlib.stdout -> flush ch
  | Some ch -> close_out ch
  | None -> ());
  remove_scratch s.scratch;
  Unix.close s.lock

let supervise s write ~finally body =
  match
    body ();
    save ~force:true s write
  with
  | () ->
      finally ();
      close_session s
  | exception e ->
      (try save ~force:true s write with _ -> ());
      finally ();
      close_session s;
      raise e

(* --- heartbeat slots --------------------------------------------------------- *)

(* Each worker slot is two int64 words in a mapping every worker
   inherits: the unit it is about to run and when it started it.  A beat
   is two stores and never wakes the supervisor, which reads the slots
   when it wakes for something else or when a conviction falls due.  (A
   line per beat on the exit channel would wake it each time and preempt
   the worker.) *)
type beats = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let beats_create ~dir ~slots : beats =
  let path = Filename.concat dir "beats" in
  let fd = Unix.openfile path [ O_RDWR; O_CREAT; O_TRUNC ] 0o600 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| 2 * slots |]))

(* The time is stored first.  The supervisor reads the two words
   separately; a unit read with the previous beat's time can only make a
   conviction look due early by the few nanoseconds the second store
   takes to land. *)
let beat (b : beats) slot unit =
  b.{(2 * slot) + 1} <- Int64.bits_of_float (Unix.gettimeofday ());
  b.{2 * slot} <- Int64.of_int unit

let beat_time (b : beats) slot = Int64.float_of_bits b.{(2 * slot) + 1}

(* --- the worker pool --------------------------------------------------------- *)

type member = { w : Runner.worker; slot : int }

type 'a busy = {
  work : 'a;
  member : member;
  started : float;
  mutable term_sent : bool;
  mutable hung : bool;
}

type 'a pool = {
  size : int;
  hang_s : float;
  beats : beats;
  fork : slot:int -> siblings:Runner.worker list -> beat:(int -> unit) -> Runner.worker;
  mutable idle : member list;
  mutable busy : 'a busy list;
}

type verdict = Busy | Idle | Kill

let pool s ~size ~hang_s fork =
  {
    size;
    hang_s;
    beats = beats_create ~dir:s.scratch ~slots:(max 1 size);
    fork;
    idle = [];
    busy = [];
  }

let busy p = p.busy
let pid b = b.member.w.Runner.pid
let beat_unit p b = Int64.to_int p.beats.{2 * b.member.slot}
let members p = p.idle @ List.map (fun b -> b.member) p.busy

(* A worker keeps its slot for life; a new one takes the lowest free. *)
let fork_member p =
  let live = members p in
  let rec free i = if List.exists (fun m -> m.slot = i) live then free (i + 1) else i in
  let slot = free 0 in
  let w =
    p.fork ~slot ~siblings:(List.map (fun m -> m.w) live) ~beat:(beat p.beats slot)
  in
  { w; slot }

(* The parent beats [-1] before the request goes out, so the hang budget
   runs from the dispatch.  A worker that died idle fails its send; that
   costs the job no attempt, only a fresh fork.  A fresh worker's failed
   send shows up as its death. *)
let dispatch p work req =
  let rec go () =
    let m, fresh =
      match p.idle with
      | [] -> (fork_member p, true)
      | m :: rest ->
          p.idle <- rest;
          (m, false)
    in
    beat p.beats m.slot (-1);
    if Runner.send m.w req || fresh then m
    else begin
      ignore (Runner.retire m.w : Unix.process_status);
      go ()
    end
  in
  let member = go () in
  let b =
    { work; member; started = Unix.gettimeofday (); term_sent = false; hung = false }
  in
  p.busy <- b :: p.busy;
  b

let retire_idle p =
  List.iter (fun m -> ignore (Runner.retire m.w : Unix.process_status)) p.idle;
  p.idle <- []

let signal pid s = try Unix.kill pid s with Unix.Unix_error _ -> ()

let drain_workers p =
  retire_idle p;
  List.iter
    (fun b ->
      if not b.term_sent then begin
        b.term_sent <- true;
        signal (pid b) Sys.sigterm
      end)
    p.busy

let convict p now =
  List.iter
    (fun b ->
      if (not b.hung) && now -. beat_time p.beats b.member.slot > p.hang_s then begin
        b.hung <- true;
        signal (pid b) Sys.sigkill
      end)
    p.busy

let next_conviction p =
  List.fold_left
    (fun t b ->
      if b.hung then t else Float.min t (beat_time p.beats b.member.slot +. p.hang_s))
    infinity p.busy

let wait p wake until rfds wfds ~reply ~lost =
  let rs, ws =
    Runner.sleep_until wake until
      (rfds @ List.map (fun m -> m.w.Runner.rsp) (members p))
      wfds
  in
  let spoke m = List.mem m.w.Runner.rsp rs in
  (* An idle worker speaks only to die; a reply nobody asked for is a
     protocol breach. *)
  p.idle <-
    List.filter
      (fun m ->
        (not (spoke m))
        ||
        match Runner.receive m.w with
        | Runner.Nothing -> true
        | Runner.Died _ | Runner.Corrupt -> false
        | Runner.Reply _ ->
            Runner.kill m.w;
            false)
      p.idle;
  p.busy <-
    List.filter
      (fun b ->
        (not (spoke b.member))
        ||
        match Runner.receive b.member.w with
        | Runner.Nothing -> true
        | Runner.Reply payload -> (
            match reply b payload with
            | Busy -> true
            | Idle ->
                p.idle <- b.member :: p.idle;
                false
            | Kill ->
                Runner.kill b.member.w;
                false)
        | Runner.Died status ->
            lost b (Some status);
            false
        | Runner.Corrupt ->
            lost b None;
            false)
      p.busy;
  (rs, ws)

let shutdown p =
  retire_idle p;
  List.iter (fun b -> Runner.kill b.member.w) p.busy

let run_pool s write p q ~log ~nouns:(worker, unit) ~check ~deadline ~start
    ?(before_wait = fun () -> ([], [])) ?(after_wait = fun _ _ -> ()) ?(finally = ignore)
    ~reply ~lost () =
  let drain = s.drain in
  let announced = ref false in
  let continue () = p.busy <> [] || ((not !drain) && queued q > 0) in
  supervise s write
    ~finally:(fun () ->
      shutdown p;
      finally ())
    (fun () ->
      while continue () do
        let now = Unix.gettimeofday () in
        check now;
        (* Drain: EOF to the idle workers, SIGTERM once to the busy ones.
           The hang rule stays armed: a wedged worker may ignore SIGTERM,
           and only SIGKILL resolves it. *)
        if !drain then begin
          if not !announced then begin
            announced := true;
            log
              (Printf.sprintf "draining: %d %s(s) in flight, %d %s(s) queued"
                 (List.length p.busy) worker (queued q) unit)
          end;
          drain_workers p
        end;
        convict p now;
        promote q now;
        let rec fill () =
          if (not !drain) && List.length p.busy < p.size then
            match pop q with
            | Some x ->
                start x;
                fill ()
            | None -> ()
        in
        fill ();
        save s write;
        if continue () then begin
          let rfds, wfds = before_wait () in
          (* Sleep until a reply pipe, one of the caller's descriptors or
             a drain signal speaks, or the earliest deadline falls due: a
             conviction, a backoff expiry, the caller's deadline or a
             pending checkpoint write. *)
          let until =
            List.fold_left Float.min (next_conviction p)
              [ next_due q; ckpt_due s.ckpt; (if !drain then infinity else deadline ()) ]
          in
          let rs, ws = wait p s.wake until rfds wfds ~reply ~lost in
          after_wait rs ws
        end
      done)

(* --- the per-job policy ------------------------------------------------------ *)

type job = {
  job : Job.t;
  mat : Runner.mat;
  mutable attempts : int;
  mutable last_reason : string;
  mutable last_stderr : string;
}

let job ~model j =
  {
    job = j;
    mat = Runner.materialize ~model j;
    attempts = 0;
    last_reason = "";
    last_stderr = "";
  }

type policy = {
  cache : Verdict_cache.t;
  retries : int;
  backoff_ms : int;
  timeout_s : float;
  model_name : string;
  log : string -> unit;
  verbose : bool;
  record : job -> string -> unit;
  requeue : job -> at:float -> unit;
  mutable completed : int;
  mutable violations : int;
  mutable served_from_cache : int;
  mutable sym_dedup : int;
  mutable states : int;
  mutable quarantined : job list;
}

let policy ~cache ~retries ~backoff_ms ~timeout_s ~model ~log ~verbose ~record
    ~requeue =
  {
    cache;
    retries;
    backoff_ms;
    timeout_s;
    model_name = Worker.model_name model;
    log;
    verbose;
    record;
    requeue;
    completed = 0;
    violations = 0;
    served_from_cache = 0;
    sym_dedup = 0;
    states = 0;
    quarantined = [];
  }

let ms_since t = (Unix.gettimeofday () -. t) *. 1000.

let finish p js v ~cached ~ms =
  (match js.mat.Runner.m_prog with
  | Some (_, key, skey) ->
      Verdict_cache.add p.cache key v;
      Verdict_cache.add p.cache skey v
  | None -> ());
  p.completed <- p.completed + 1;
  if v.Verdict_cache.v_violation then begin
    p.violations <- p.violations + 1;
    p.log
      (Printf.sprintf "VIOLATION %s: %d outcome(s) beyond SC under %s"
         (Job.label js.job)
         (List.length v.Verdict_cache.v_outcomes)
         p.model_name)
  end;
  if cached then p.served_from_cache <- p.served_from_cache + 1
  else p.states <- p.states + v.Verdict_cache.v_states;
  p.record js
    (Runner.verdict_record js.job v ~cached ~attempts:(js.attempts + 1) ~ms)

let quarantine p js ~ms =
  p.quarantined <- js :: p.quarantined;
  p.log
    (Printf.sprintf "QUARANTINED %s after %d attempt(s): %s" (Job.label js.job)
       js.attempts js.last_reason);
  p.record js
    (Runner.quarantine_record js.job ~reason:js.last_reason
       ~stderr:js.last_stderr ~attempts:js.attempts ~ms)

let admit p js =
  match js.mat.Runner.m_error with
  | Some e ->
      (* Unreproducible source: retrying cannot help — straight to
         quarantine, and the run keeps going. *)
      js.last_reason <- "unusable job: " ^ e;
      js.attempts <- p.retries;
      quarantine p js ~ms:0.;
      false
  | None -> (
      match js.mat.Runner.m_prog with
      | None -> (* wedge: never cached *) true
      | Some (_, key, skey) -> (
          match Verdict_cache.find p.cache key with
          | Some v ->
              finish p js v ~cached:true ~ms:0.;
              false
          | None -> (
              (* Exact text never verified — but a renaming of it may
                 have been: the symmetry key answers with the class
                 representative's verdict (identical up to the names
                 inside v_outcomes strings). *)
              match Verdict_cache.find p.cache skey with
              | Some v ->
                  p.sym_dedup <- p.sym_dedup + 1;
                  finish p js v ~cached:true ~ms:0.;
                  false
              | None -> true)))

let failed p js ~reason ~stderr ~started =
  js.attempts <- js.attempts + 1;
  js.last_reason <- reason;
  js.last_stderr <- Runner.read_tail stderr;
  if js.attempts >= p.retries then quarantine p js ~ms:(ms_since started)
  else begin
    let delay =
      backoff_delay_ms ~base:p.backoff_ms ~attempt:js.attempts ~job_id:js.job.Job.id
    in
    p.requeue js ~at:(Unix.gettimeofday () +. (float_of_int delay /. 1000.));
    if p.verbose then
      p.log
        (Printf.sprintf "retrying %s in %d ms (attempt %d/%d: %s)"
           (Job.label js.job) delay (js.attempts + 1) p.retries js.last_reason)
  end

let exited p js status ~hung ~started ~stderr ~clean ~cancelled =
  let failed reason = failed p js ~reason ~stderr ~started in
  match status with
  | None -> failed "worker reply failed its CRC or kind"
  | Some (Unix.WEXITED 0) -> clean ()
  | Some (Unix.WEXITED 9) ->
      (* Drain or client cancellation: not a failure. *)
      if p.verbose then
        p.log (Printf.sprintf "%s cancelled at a safe point" (Job.label js.job));
      cancelled ()
  | Some (Unix.WEXITED n) -> failed (Printf.sprintf "worker exited %d" n)
  | Some (Unix.WSIGNALED _) when hung ->
      failed (Printf.sprintf "timeout: SIGKILL after %.1fs" p.timeout_s)
  | Some (Unix.WSIGNALED s) -> failed ("worker killed by " ^ Runner.signal_name s)
  | Some (Unix.WSTOPPED _) -> (* not requested (no WUNTRACED) *)
      failed "worker stopped unexpectedly"
