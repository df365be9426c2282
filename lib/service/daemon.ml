(* The long-lived verification daemon behind [weakord serve].

   One single-threaded event loop owns everything: the listening
   Unix-domain socket, every client connection, the fork-per-job worker
   pool, the verdict cache, and the checkpoint.  Clients speak the Wire
   protocol; jobs they SUBMIT become tickets multiplexed onto the same
   per-attempt machinery the one-shot batch supervisor uses (Runner),
   under the same timeout/retry/backoff/quarantine policy.

   Fairness: each client owns a FIFO of its pending tickets and
   dispatch round-robins across clients, so a client that dumps 10^4
   jobs cannot starve one submitting a single program.  Tickets
   restored from a checkpoint belong to a synthetic "orphan" client
   that takes its turn like any other.

   The cache is shared across all clients (exact key first, then the
   orbit-canonical symmetry key), so client B's job completes instantly
   when client A already paid for the verdict — the amortization the
   one-shot batch could never get across invocations.

   Shutdown mirrors batch: SIGTERM/SIGINT (or a DRAIN request) stops
   admission, SIGTERMs in-flight workers so they park their jobs at a
   safe point, checkpoints every unfinished ticket, and reports
   suspended=true (exit 3) when anything is left.  A periodic
   checkpoint also runs between drains, so even SIGKILL loses at most a
   quarter second of queue state — completed verdicts are never lost,
   they are already in the cache and the JSONL log. *)

type cfg = {
  socket : string;
  out : string option;
  workers : int;
  timeout_s : float;
  retries : int;
  backoff_ms : int;
  cache : Verdict_cache.t;
  checkpoint : string option;
  resume : string option;
  model : Worker.model;
  machine : string;
  fuel : int option;
  spill_dir : string option;
  mem_budget : int option;
  max_clients : int;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    socket = "weakord.sock";
    out = None;
    workers = 4;
    timeout_s = 10.;
    retries = 3;
    backoff_ms = 100;
    cache = Verdict_cache.in_memory ();
    checkpoint = None;
    resume = None;
    model = Worker.Drf0;
    machine = "def2";
    fuel = None;
    spill_dir = None;
    mem_budget = None;
    max_clients = 64;
    log = ignore;
    verbose = false;
  }

type summary = {
  submitted : int;
  completed : int;
  violations : int;
  quarantined : int;
  cancelled : int;
  pending : int;
  served_from_cache : int;
  sym_dedup : int;
  states_total : int;
  clients_total : int;
  cache : Verdict_cache.stats;
  suspended : bool;
  wall_s : float;
}

exception Startup_error of string

let exit_code s = if s.suspended then 3 else 0

(* --- checkpoint -------------------------------------------------------------- *)

let ckpt_kind = "weakord.daemon"

type ckpt = {
  c_model : string;
  c_next_ticket : int;
  c_pending : (int * Job.t * int) list;  (* ticket, job, failed attempts *)
}

let write_ckpt path ck =
  Snapshot.write_file path
    (Snapshot.frame ~kind:ckpt_kind
       ~meta:(Printf.sprintf "%d pending ticket(s)" (List.length ck.c_pending))
       ~payload:(Marshal.to_string ck []))

let load_ckpt path =
  match Snapshot.load path with
  | Error (e, _) ->
      raise
        (Startup_error
           (Printf.sprintf "%s: %s" path (Snapshot.error_string e)))
  | Ok { Snapshot.container = c; recovered } ->
      if not (String.equal c.Snapshot.kind ckpt_kind) then
        raise
          (Startup_error
             (Printf.sprintf "%s holds a %S snapshot, expected %S" path
                c.Snapshot.kind ckpt_kind));
      (match (Marshal.from_string c.Snapshot.payload 0 : ckpt) with
      | ck -> (ck, recovered)
      | exception (Failure _ | Invalid_argument _) ->
          raise (Startup_error (path ^ ": checkpoint payload does not unmarshal")))

(* --- per-ticket and per-connection state ------------------------------------- *)

type phase =
  | Queued
  | Running
  | Done  (* record holds the final JSONL line *)
  | Cancelled

type ticket = {
  t_id : int;
  t_job : Job.t;  (* [t_job.id = t_id] *)
  t_client : int;  (* owner's connection id; [orphan_client] after resume *)
  t_mat : Runner.mat;
  mutable t_phase : phase;
  mutable t_record : string option;
  mutable t_attempts : int;
  mutable t_eligible_at : float;
  mutable t_last_reason : string;
  mutable t_last_stderr : string;
  mutable t_cancel_requested : bool;
}

let orphan_client = -1

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Wire.decoder;
  c_out : Buffer.t;  (* bytes awaiting a writable socket *)
  mutable c_hello : bool;
  mutable c_closing : bool;  (* flush c_out, then close *)
  mutable c_submitted : int;
  mutable c_completed : int;
}

type running = {
  r_ticket : ticket;
  r_pid : int;
  r_started : float;
  r_result : string;
  r_stderr : string;
  mutable r_timed_out : bool;
  mutable r_term_sent : bool;
}

let phase_string t =
  match t.t_phase with
  | Queued -> if t.t_eligible_at > 0. then "backoff" else "queued"
  | Running -> "running"
  | Cancelled -> "cancelled"
  | Done -> "done"

(* --- the server -------------------------------------------------------------- *)

let bind_socket path =
  (* A leftover socket file from a crashed daemon must not block
     restart, but an actively served one must: probe by connecting. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          raise
            (Startup_error
               (Printf.sprintf "%s: a daemon is already serving this socket"
                  path))
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          Unix.close probe;
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ ->
          Unix.close probe;
          (try Unix.unlink path with Unix.Unix_error _ -> ()))
  | _ ->
      raise
        (Startup_error
           (Printf.sprintf "%s exists and is not a socket" path))
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     raise
       (Startup_error
          (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if cfg.retries < 1 then invalid_arg "Daemon.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let model_name = Worker.model_name cfg.model in
  (* EPIPE from a vanished client must be an error code on the write,
     not a process-killing signal. *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let drain = ref false in
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> drain := true)) in
  let old_term = install Sys.sigterm in
  let old_int = install Sys.sigint in
  let restore_signals () =
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int
  in

  (* Tickets and queues. *)
  let tickets : (int, ticket) Hashtbl.t = Hashtbl.create 256 in
  let next_ticket = ref 0 in
  let queues : (int, int Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let rr : int list ref = ref [] in  (* round-robin order of queue owners *)
  let queue_of client =
    match Hashtbl.find_opt queues client with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace queues client q;
        rr := !rr @ [ client ];
        q
  in
  let delayed : ticket list ref = ref [] in
  let running : running list ref = ref [] in
  let waiters : (int, int list) Hashtbl.t = Hashtbl.create 16 in

  (* Tallies. *)
  let submitted = ref 0 in
  let completed = ref 0 in
  let violations = ref 0 in
  let quarantined = ref 0 in
  let cancelled = ref 0 in
  let served_from_cache = ref 0 in
  let sym_dedup = ref 0 in
  let states_total = ref 0 in
  let clients_total = ref 0 in
  let queue_gauge = Obs.Gauge.create () in
  let workers_gauge = Obs.Gauge.create () in

  (* Resume: restore unfinished tickets as orphans. *)
  (match cfg.resume with
  | None -> ()
  | Some path ->
      let ck, recovered = load_ckpt path in
      if not (String.equal ck.c_model model_name) then
        raise
          (Startup_error
             (Printf.sprintf
                "checkpoint was taken under model %s, this daemon uses %s"
                ck.c_model model_name));
      next_ticket := ck.c_next_ticket;
      let q = queue_of orphan_client in
      List.iter
        (fun (id, job, attempts) ->
          let t =
            {
              t_id = id;
              t_job = job;
              t_client = orphan_client;
              t_mat = Runner.materialize ~model:cfg.model job;
              t_phase = Queued;
              t_record = None;
              t_attempts = attempts;
              t_eligible_at = 0.;
              t_last_reason = "";
              t_last_stderr = "";
              t_cancel_requested = false;
            }
          in
          Hashtbl.replace tickets id t;
          Queue.add id q)
        ck.c_pending;
      cfg.log
        (Printf.sprintf "resumed %d orphan ticket(s) from %s%s"
           (List.length ck.c_pending) path
           (if recovered then " (recovered from the last-good .prev generation)"
            else "")));

  let listen_fd = bind_socket cfg.socket in

  (* Output stream (append; survives resume like batch). *)
  let out_ch, close_out_ch =
    match cfg.out with
    | None -> (None, fun () -> ())
    | Some p ->
        let ch = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 p in
        (Some ch, fun () -> close_out ch)
  in
  let emit line =
    match out_ch with
    | None -> ()
    | Some ch ->
        output_string ch line;
        output_char ch '\n';
        flush ch
  in

  (* Scratch area for worker result/stderr files. *)
  let scratch =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "weakord-daemon-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let result_path id = Filename.concat scratch (Printf.sprintf "t%d.result" id) in
  let stderr_path id = Filename.concat scratch (Printf.sprintf "t%d.stderr" id) in

  (* Connections. *)
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
  let send c payload =
    Buffer.add_string c.c_out (Wire.frame payload)
  in
  let close_conn c =
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns c.c_id
  in

  let pending_tickets () =
    Hashtbl.fold
      (fun _ t acc ->
        match t.t_phase with Queued | Running -> t :: acc | _ -> acc)
      tickets []
    |> List.sort (fun a b -> compare a.t_id b.t_id)
  in

  let last_ckpt = ref 0. in
  let save_ckpt ~force () =
    match cfg.checkpoint with
    | None -> ()
    | Some path ->
        let now = Unix.gettimeofday () in
        if force || now -. !last_ckpt > 0.25 then begin
          last_ckpt := now;
          write_ckpt path
            {
              c_model = model_name;
              c_next_ticket = !next_ticket;
              c_pending =
                List.map
                  (fun t -> (t.t_id, t.t_job, t.t_attempts))
                  (pending_tickets ());
            }
        end
  in

  let notify_waiters t =
    match Hashtbl.find_opt waiters t.t_id with
    | None -> ()
    | Some ids ->
        Hashtbl.remove waiters t.t_id;
        List.iter
          (fun cid ->
            match Hashtbl.find_opt conns cid with
            | None -> ()
            | Some c -> (
                match (t.t_phase, t.t_record) with
                | Done, Some r -> send c (Wire.ok r)
                | Cancelled, _ ->
                    send c (Wire.err Wire.e_gone "job was cancelled")
                | _ -> send c (Wire.err Wire.e_draining "server drained")))
          ids
  in

  let finish_ticket t record ~count_client =
    t.t_phase <- Done;
    t.t_record <- Some record;
    emit record;
    notify_waiters t;
    (if count_client then
       match Hashtbl.find_opt conns t.t_client with
       | Some c -> c.c_completed <- c.c_completed + 1
       | None -> ());
    save_ckpt ~force:false ()
  in

  let finish_verdict t v ~cached ~ms =
    (match t.t_mat.Runner.m_prog with
    | Some (_, key, skey) ->
        Verdict_cache.add cfg.cache key v;
        Verdict_cache.add cfg.cache skey v
    | None -> ());
    incr completed;
    if v.Verdict_cache.v_violation then incr violations;
    if cached then incr served_from_cache
    else states_total := !states_total + v.Verdict_cache.v_states;
    finish_ticket t
      (Runner.verdict_record t.t_job v ~cached ~attempts:(t.t_attempts + 1) ~ms)
      ~count_client:true
  in

  let quarantine t ~ms =
    incr quarantined;
    cfg.log
      (Printf.sprintf "QUARANTINED %s after %d attempt(s): %s"
         (Job.label t.t_job) t.t_attempts t.t_last_reason);
    finish_ticket t
      (Runner.quarantine_record t.t_job ~reason:t.t_last_reason
         ~stderr:t.t_last_stderr ~attempts:t.t_attempts ~ms)
      ~count_client:true
  in

  let cancel_done t =
    t.t_phase <- Cancelled;
    incr cancelled;
    notify_waiters t
  in

  let requeue_backoff t =
    let delay =
      Batch.backoff_delay_ms ~base:cfg.backoff_ms ~attempt:t.t_attempts
        ~job_id:t.t_id
    in
    t.t_eligible_at <- Unix.gettimeofday () +. (float_of_int delay /. 1000.);
    delayed := !delayed @ [ t ];
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "retrying %s in %d ms (attempt %d/%d: %s)"
           (Job.label t.t_job) delay (t.t_attempts + 1) cfg.retries
           t.t_last_reason)
  in

  let attempt_failed r reason =
    let t = r.r_ticket in
    t.t_attempts <- t.t_attempts + 1;
    t.t_last_reason <- reason;
    t.t_last_stderr <- Runner.read_tail r.r_stderr;
    if t.t_attempts >= cfg.retries then
      quarantine t ~ms:((Unix.gettimeofday () -. r.r_started) *. 1000.)
    else requeue_backoff t
  in

  let handle_exit r status =
    let t = r.r_ticket in
    let ms = (Unix.gettimeofday () -. r.r_started) *. 1000. in
    t.t_phase <- Queued;
    match status with
    | Unix.WEXITED 0 -> (
        match Runner.read_result r.r_result with
        | Some v -> finish_verdict t v ~cached:false ~ms
        | None ->
            attempt_failed r "worker exited 0 but left no valid result file")
    | Unix.WEXITED 9 ->
        if t.t_cancel_requested then cancel_done t
        else begin
          (* Drain parking: back to the owner's queue for the checkpoint. *)
          if cfg.verbose then
            cfg.log
              (Printf.sprintf "%s cancelled at a safe point" (Job.label t.t_job));
          Queue.add t.t_id (queue_of t.t_client)
        end
    | Unix.WEXITED n -> attempt_failed r (Printf.sprintf "worker exited %d" n)
    | Unix.WSIGNALED _ when r.r_timed_out ->
        attempt_failed r
          (Printf.sprintf "timeout: SIGKILL after %.1fs" cfg.timeout_s)
    | Unix.WSIGNALED s ->
        attempt_failed r
          (Printf.sprintf "worker killed by %s" (Runner.signal_name s))
    | Unix.WSTOPPED _ ->
        (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
        attempt_failed r "worker stopped unexpectedly"
  in

  let exec =
    {
      Runner.x_model = cfg.model;
      x_fuel = cfg.fuel;
      x_spill_dir = cfg.spill_dir;
      x_mem_budget = cfg.mem_budget;
    }
  in
  let spawn t =
    let rp = result_path t.t_id and sp = stderr_path t.t_id in
    (match out_ch with Some ch -> flush ch | None -> ());
    (* The daemon still reaps on its select tick, so it drops the exit
       channel at once. *)
    let { Runner.pid; fd } =
      Runner.spawn exec ~result_path:rp ~stderr_path:sp t.t_job t.t_mat
    in
    Unix.close fd;
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "worker %d started %s (attempt %d/%d)" pid
           (Job.label t.t_job) (t.t_attempts + 1) cfg.retries);
    t.t_phase <- Running;
    running :=
      {
        r_ticket = t;
        r_pid = pid;
        r_started = Unix.gettimeofday ();
        r_result = rp;
        r_stderr = sp;
        r_timed_out = false;
        r_term_sent = false;
      }
      :: !running
  in

  let queue_depth () =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) queues 0
    + List.length !delayed
  in

  (* Round-robin dispatch: the serving owner rotates to the back; every
     other owner keeps its place even when its queue is momentarily
     empty — a quiet client must not fall out of the rotation, its next
     SUBMIT reuses the same queue.  Owners whose client is gone and
     whose queue is drained are retired here. *)
  let pop_next_ticket () =
    let rec try_owners skipped = function
      | [] -> None
      | owner :: rest -> (
          let q = queue_of owner in
          match Queue.take_opt q with
          | None ->
              if owner <> orphan_client && not (Hashtbl.mem conns owner)
              then begin
                Hashtbl.remove queues owner;
                rr := List.filter (fun o -> o <> owner) !rr;
                try_owners skipped rest
              end
              else try_owners (owner :: skipped) rest
          | Some id -> (
              match Hashtbl.find_opt tickets id with
              | Some t when t.t_phase = Queued ->
                  rr := List.rev_append skipped (rest @ [ owner ]);
                  Some t
              | _ -> try_owners skipped (owner :: rest)
              (* cancelled while queued: retry the same owner *)))
    in
    try_owners [] !rr
  in

  let dispatch () =
    let continue = ref true in
    while
      !continue
      && (not !drain)
      && List.length !running < cfg.workers
    do
      match pop_next_ticket () with
      | None -> continue := false
      | Some t -> (
          Obs.Gauge.set queue_gauge (queue_depth ());
          match t.t_mat.Runner.m_error with
          | Some e ->
              t.t_last_reason <- "unusable job: " ^ e;
              t.t_attempts <- cfg.retries;
              quarantine t ~ms:0.
          | None -> (
              match t.t_mat.Runner.m_prog with
              | Some (_, key, skey) -> (
                  match Verdict_cache.find cfg.cache key with
                  | Some v -> finish_verdict t v ~cached:true ~ms:0.
                  | None -> (
                      match Verdict_cache.find cfg.cache skey with
                      | Some v ->
                          incr sym_dedup;
                          finish_verdict t v ~cached:true ~ms:0.
                      | None -> spawn t))
              | None -> spawn t));
      Obs.Gauge.set workers_gauge (List.length !running)
    done
  in

  let stats_json () =
    let per_client =
      Hashtbl.fold
        (fun _ c acc ->
          Printf.sprintf
            "{\"client\":%d,\"submitted\":%d,\"completed\":%d}" c.c_id
            c.c_submitted c.c_completed
          :: acc)
        conns []
      |> List.sort compare
    in
    let wall = Unix.gettimeofday () -. t0 in
    let cs = Verdict_cache.stats cfg.cache in
    Printf.sprintf
      "{\"clients\":%d,\"clients_total\":%d,\"queue_depth\":%d,\"running\":%d,\"submitted\":%d,\"completed\":%d,\"violations\":%d,\"quarantined\":%d,\"cancelled\":%d,\"served_from_cache\":%d,\"sym_dedup\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_entries\":%d,\"states_total\":%d,\"states_per_sec\":%.1f,\"queue_depth_max\":%d,\"queue_depth_mean\":%.1f,\"workers_max\":%d,\"workers_mean\":%.1f,\"uptime_s\":%.1f,\"draining\":%b,\"per_client\":[%s]}"
      (Hashtbl.length conns) !clients_total (queue_depth ())
      (List.length !running) !submitted !completed !violations !quarantined
      !cancelled !served_from_cache !sym_dedup cs.Verdict_cache.hits
      cs.Verdict_cache.misses cs.Verdict_cache.entries !states_total
      (if wall > 0. then float_of_int !states_total /. wall else 0.)
      (Obs.Gauge.max_level queue_gauge)
      (Obs.Gauge.mean queue_gauge)
      (Obs.Gauge.max_level workers_gauge)
      (Obs.Gauge.mean workers_gauge)
      wall !drain
      (String.concat "," per_client)
  in

  let submit c jobline =
    if !drain then send c (Wire.err Wire.e_draining "server is draining")
    else
      match Job.parse_string ~default_machine:cfg.machine jobline with
      | Error e -> send c (Wire.err Wire.e_bad e)
      | Ok [] -> send c (Wire.err Wire.e_bad "job line expands to no jobs")
      | Ok jobs ->
          let q = queue_of c.c_id in
          let first = !next_ticket in
          List.iter
            (fun j ->
              let id = !next_ticket in
              incr next_ticket;
              incr submitted;
              c.c_submitted <- c.c_submitted + 1;
              let job = { j with Job.id } in
              let t =
                {
                  t_id = id;
                  t_job = job;
                  t_client = c.c_id;
                  t_mat = Runner.materialize ~model:cfg.model job;
                  t_phase = Queued;
                  t_record = None;
                  t_attempts = 0;
                  t_eligible_at = 0.;
                  t_last_reason = "";
                  t_last_stderr = "";
                  t_cancel_requested = false;
                }
              in
              Hashtbl.replace tickets id t;
              Queue.add id q)
            jobs;
          Obs.Gauge.set queue_gauge (queue_depth ());
          let last = !next_ticket - 1 in
          if first = last then
            send c (Wire.ok (Printf.sprintf "ticket=%d" first))
          else send c (Wire.ok (Printf.sprintf "tickets=%d-%d" first last));
          save_ckpt ~force:false ()
  in

  let handle_request c req =
    match req with
    | Wire.Hello v ->
        if String.equal v Wire.greeting then begin
          c.c_hello <- true;
          send c
            (Wire.ok
               (Printf.sprintf "%s engine=%s" Wire.greeting
                  Verdict_cache.engine_version))
        end
        else
          send c
            (Wire.err Wire.e_hello
               (Printf.sprintf "unsupported version %S, this server speaks %s"
                  v Wire.greeting))
    | _ when not c.c_hello ->
        send c (Wire.err Wire.e_hello "say HELLO first")
    | Wire.Submit jobline -> submit c jobline
    | Wire.Status id -> (
        match Hashtbl.find_opt tickets id with
        | None -> send c (Wire.err Wire.e_unknown (Printf.sprintf "no ticket %d" id))
        | Some t ->
            send c (Wire.ok (Printf.sprintf "%d %s" t.t_id (phase_string t))))
    | Wire.Result { ticket = id; wait } -> (
        match Hashtbl.find_opt tickets id with
        | None -> send c (Wire.err Wire.e_unknown (Printf.sprintf "no ticket %d" id))
        | Some { t_phase = Done; t_record = Some r; _ } -> send c (Wire.ok r)
        | Some { t_phase = Cancelled; _ } ->
            send c (Wire.err Wire.e_gone "job was cancelled")
        | Some t ->
            if wait then
              Hashtbl.replace waiters t.t_id
                (c.c_id
                :: (Option.value ~default:[] (Hashtbl.find_opt waiters t.t_id)))
            else
              send c
                (Wire.err Wire.e_conflict
                   (Printf.sprintf "ticket %d is %s; use RESULT %d WAIT" id
                      (phase_string t) id)))
    | Wire.Cancel id -> (
        match Hashtbl.find_opt tickets id with
        | None -> send c (Wire.err Wire.e_unknown (Printf.sprintf "no ticket %d" id))
        | Some t -> (
            match t.t_phase with
            | Done | Cancelled ->
                send c
                  (Wire.err Wire.e_conflict
                     (Printf.sprintf "ticket %d already %s" id (phase_string t)))
            | Queued ->
                t.t_cancel_requested <- true;
                delayed := List.filter (fun d -> d.t_id <> t.t_id) !delayed;
                cancel_done t;
                send c (Wire.ok (Printf.sprintf "%d cancelled" id))
            | Running ->
                t.t_cancel_requested <- true;
                List.iter
                  (fun r ->
                    if r.r_ticket.t_id = t.t_id && not r.r_term_sent then begin
                      r.r_term_sent <- true;
                      try Unix.kill r.r_pid Sys.sigterm
                      with Unix.Unix_error _ -> ()
                    end)
                  !running;
                send c (Wire.ok (Printf.sprintf "%d cancelling" id))))
    | Wire.Stats -> send c (Wire.ok (stats_json ()))
    | Wire.Drain ->
        drain := true;
        send c
          (Wire.ok
             (Printf.sprintf "draining pending=%d running=%d" (queue_depth ())
                (List.length !running)))
    | Wire.Ping -> send c (Wire.ok "pong")
    | Wire.Bye ->
        send c (Wire.ok "bye");
        c.c_closing <- true
  in

  let read_conn c =
    match
      let buf = Bytes.create 4096 in
      let n = Unix.read c.c_fd buf 0 4096 in
      if n = 0 then `Eof else `Data (Bytes.sub_string buf 0 n)
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn c
    | `Eof -> close_conn c
    | `Data data ->
        Wire.feed c.c_dec data;
        let rec pump () =
          match Wire.next c.c_dec with
          | Ok None -> ()
          | Ok (Some payload) ->
              (match Wire.parse_request payload with
              | Ok req -> handle_request c req
              | Error (code, msg) -> send c (Wire.err code msg));
              if not c.c_closing then pump ()
          | Error e ->
              (* Framing violations latch: answer once, then hang up. *)
              send c (Wire.err Wire.e_bad ("framing: " ^ e));
              c.c_closing <- true
        in
        pump ()
  in

  let write_conn c =
    let s = Buffer.contents c.c_out in
    if String.length s > 0 then (
      match Unix.write_substring c.c_fd s 0 (String.length s) with
      | n ->
          Buffer.clear c.c_out;
          if n < String.length s then
            Buffer.add_substring c.c_out s n (String.length s - n)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> close_conn c);
    if c.c_closing && Buffer.length c.c_out = 0 then close_conn c
  in

  let accept_conns () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          if !drain || Hashtbl.length conns >= cfg.max_clients then (
            (* Refuse politely: one frame, then close. *)
            let msg =
              Wire.frame
                (Wire.err Wire.e_draining
                   (if !drain then "server is draining" else "too many clients"))
            in
            (try
               ignore (Unix.write_substring fd msg 0 (String.length msg))
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ()))
          else begin
            Unix.set_nonblock fd;
            let id = !next_conn in
            incr next_conn;
            incr clients_total;
            Hashtbl.replace conns id
              {
                c_id = id;
                c_fd = fd;
                c_dec = Wire.decoder ();
                c_out = Buffer.create 256;
                c_hello = false;
                c_closing = false;
                c_submitted = 0;
                c_completed = 0;
              };
            if cfg.verbose then cfg.log (Printf.sprintf "client %d connected" id)
          end;
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in

  let drain_announced = ref false in
  let finally () =
    restore_signals ();
    close_out_ch ();
    Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
    (match Sys.readdir scratch with
    | files ->
        Array.iter
          (fun f -> try Sys.remove (Filename.concat scratch f) with Sys_error _ -> ())
          files;
        (try Unix.rmdir scratch with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ())
  in

  cfg.log
    (Printf.sprintf "serving on %s (model %s, %d worker(s))" cfg.socket
       model_name cfg.workers);

  (try
     let continue () = (not !drain) || !running <> [] in
     while continue () do
       let now = Unix.gettimeofday () in
       (* Drain: forward SIGTERM once to every in-flight worker. *)
       if !drain then begin
         if not !drain_announced then begin
           drain_announced := true;
           cfg.log
             (Printf.sprintf "draining: %d worker(s) in flight, %d job(s) queued"
                (List.length !running) (queue_depth ()))
         end;
         List.iter
           (fun r ->
             if not r.r_term_sent then begin
               r.r_term_sent <- true;
               try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ()
             end)
           !running
       end;
       (* Timeouts. *)
       List.iter
         (fun r ->
           if (not r.r_timed_out) && now -. r.r_started > cfg.timeout_s then begin
             r.r_timed_out <- true;
             try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ()
           end)
         !running;
       (* Reap. *)
       let still = ref [] in
       List.iter
         (fun r ->
           match Unix.waitpid [ Unix.WNOHANG ] r.r_pid with
           | 0, _ -> still := r :: !still
           | _, status -> handle_exit r status
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> still := r :: !still)
         !running;
       running := !still;
       Obs.Gauge.set workers_gauge (List.length !running);
       (* Promote expired backoffs back into their owner's queue. *)
       let due, later = List.partition (fun t -> t.t_eligible_at <= now) !delayed in
       delayed := later;
       List.iter
         (fun t ->
           t.t_eligible_at <- 0.;
           Queue.add t.t_id (queue_of t.t_client))
         due;
       dispatch ();
       save_ckpt ~force:false ();
       (* I/O. *)
       let rfds =
         listen_fd
         :: Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) conns []
       in
       let wfds =
         Hashtbl.fold
           (fun _ c acc ->
             if Buffer.length c.c_out > 0 || c.c_closing then c.c_fd :: acc
             else acc)
           conns []
       in
       (match Unix.select rfds wfds [] 0.02 with
       | rs, ws, _ ->
           if List.mem listen_fd rs then accept_conns ();
           Hashtbl.fold (fun _ c acc -> c :: acc) conns []
           |> List.iter (fun c ->
                  if List.mem c.c_fd rs then read_conn c);
           Hashtbl.fold (fun _ c acc -> c :: acc) conns []
           |> List.iter (fun c ->
                  if List.mem c.c_fd ws && Hashtbl.mem conns c.c_id then
                    write_conn c)
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
     done;
     (* Drained: every waiter still registered is waiting on a ticket
        that will not finish in this process. *)
     Hashtbl.iter
       (fun _ ids ->
         List.iter
           (fun cid ->
             match Hashtbl.find_opt conns cid with
             | Some c -> send c (Wire.err Wire.e_draining "server drained")
             | None -> ())
           ids)
       waiters;
     Hashtbl.reset waiters;
     (* Best-effort flush of goodbye frames before the sockets close. *)
     Hashtbl.fold (fun _ c acc -> c :: acc) conns []
     |> List.iter (fun c -> write_conn c);
     save_ckpt ~force:true ()
   with e ->
     (try save_ckpt ~force:true () with _ -> ());
     finally ();
     raise e);
  finally ();
  let pending = List.length (pending_tickets ()) in
  {
    submitted = !submitted;
    completed = !completed;
    violations = !violations;
    quarantined = !quarantined;
    cancelled = !cancelled;
    pending;
    served_from_cache = !served_from_cache;
    sym_dedup = !sym_dedup;
    states_total = !states_total;
    clients_total = !clients_total;
    cache = Verdict_cache.stats cfg.cache;
    suspended = pending > 0;
    wall_s = Unix.gettimeofday () -. t0;
  }

let pp_summary ppf s =
  let c = s.cache in
  Format.fprintf ppf
    "daemon: %d job(s) submitted by %d client(s): %d finished (%d \
     violation(s), %d quarantined, %d cancelled, %d pending), %d served from \
     cache (%d via symmetry)@\n\
     cache: %d hit(s), %d miss(es), %d appended, %d entrie(s)@\n\
     %d state(s) expanded, wall %.1fs, %.0f states/s%s"
    s.submitted s.clients_total s.completed s.violations s.quarantined
    s.cancelled s.pending s.served_from_cache s.sym_dedup c.Verdict_cache.hits
    c.Verdict_cache.misses c.Verdict_cache.appended c.Verdict_cache.entries
    s.states_total s.wall_s
    (if s.wall_s > 0. then float_of_int s.states_total /. s.wall_s else 0.)
    (if s.suspended then " — SUSPENDED (resume with --resume)" else "")
