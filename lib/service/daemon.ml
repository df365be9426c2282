(* The long-lived verification daemon behind [weakord serve]: one
   single-threaded event loop owning the listening socket, every client
   connection ([Wire]'s server), the workers, the verdict cache and the
   checkpoint.  Tickets run under batch's per-job policy ([Supervise]);
   what stays here is the per-client round-robin, the tickets' wire
   lifecycle (STATUS, RESULT WAIT, CANCEL) and the per-attempt fork.
   Unlike batch, the daemon forks a worker per attempt ([Runner.spawn])
   and reaps on a 20 ms tick; runner.mli says why. *)

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

(* --- per-ticket and per-connection state ------------------------------------- *)

type phase =
  | Queued
  | Running
  | Done  (* record holds the final JSONL line *)
  | Cancelled

type ticket = {
  t_js : Supervise.job;  (* [t_js.job.id] is the ticket id *)
  t_client : int;  (* owner's connection id; [orphan_client] after resume *)
  mutable t_phase : phase;
  mutable t_record : string option;
  mutable t_cancel_requested : bool;
}

let tid t = t.t_js.Supervise.job.Job.id
let orphan_client = -1

type client = {
  c_id : int;
  mutable c_submitted : int;
  mutable c_completed : int;
}

type running = {
  r_ticket : ticket;
  r_pid : int;
  r_started : float;
  mutable r_timed_out : bool;
  mutable r_term_sent : bool;
}

(* SIGTERM once: the worker parks its job at a safe point. *)
let terminate r =
  if not r.r_term_sent then begin
    r.r_term_sent <- true;
    try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ()
  end

(* The daemon's select timeout.  [Runner.sleep_until] adds 1 ms of slack
   past the deadline it is given. *)
let tick_s = 0.02

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  if cfg.retries < 1 then invalid_arg "Daemon.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let model_name = Worker.model_name cfg.model in

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
  (* Ticket ids backing off; a due one goes back to its owner's queue. *)
  let retry : int Supervise.queue = Supervise.queue [] in
  let running : running list ref = ref [] in
  let waiters : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let add_ticket id job client =
    let t =
      {
        t_js = Supervise.job ~model:cfg.model job;
        t_client = client;
        t_phase = Queued;
        t_record = None;
        t_cancel_requested = false;
      }
    in
    Hashtbl.replace tickets id t;
    Queue.add id (queue_of client);
    t
  in

  (* Tallies. *)
  let submitted = ref 0 in
  let cancelled = ref 0 in
  let clients_total = ref 0 in
  let next_conn = ref 0 in
  let queue_gauge = Obs.Gauge.create () in
  let workers_gauge = Obs.Gauge.create () in

  (* Resume: restore unfinished tickets as orphans. *)
  (match cfg.resume with
  | None -> ()
  | Some path ->
      let (ck : ckpt), recovered =
        Supervise.load_ckpt ~kind:ckpt_kind ~reject:(fun m -> Startup_error m) path
      in
      if not (String.equal ck.c_model model_name) then
        raise
          (Startup_error
             (Printf.sprintf
                "checkpoint was taken under model %s, this daemon uses %s"
                ck.c_model model_name));
      next_ticket := ck.c_next_ticket;
      List.iter
        (fun (id, job, attempts) ->
          (add_ticket id job orphan_client).t_js.attempts <- attempts)
        ck.c_pending;
      cfg.log
        (Printf.sprintf "resumed %d orphan ticket(s) from %s%s"
           (List.length ck.c_pending) path
           (if recovered then " (recovered from the last-good .prev generation)"
            else "")));

  let srv : client Wire.server =
    try Wire.listen cfg.socket with Failure m -> raise (Startup_error m)
  in
  let s = Supervise.open_session ~name:"daemon" ~stdout:false ~checkpoint:cfg.checkpoint cfg.out in
  let drain = s.Supervise.drain in
  let result_path id = Supervise.scratch_file s (Printf.sprintf "t%d.result" id) in
  let stderr_path id = Supervise.scratch_file s (Printf.sprintf "t%d.stderr" id) in
  let conn id =
    List.find_opt (fun c -> c.Wire.data.c_id = id) (Wire.conns srv)
  in

  let pending_tickets () =
    Hashtbl.fold
      (fun _ t acc ->
        match t.t_phase with Queued | Running -> t :: acc | _ -> acc)
      tickets []
    |> List.sort (fun a b -> compare (tid a) (tid b))
  in
  let write_ckpt path =
    let pending = pending_tickets () in
    Supervise.write_ckpt ~kind:ckpt_kind
      ~meta:(Printf.sprintf "%d pending ticket(s)" (List.length pending))
      path
      {
        c_model = model_name;
        c_next_ticket = !next_ticket;
        c_pending =
          List.map (fun t -> (tid t, t.t_js.job, t.t_js.attempts)) pending;
      }
  in

  let notify_waiters t =
    match Hashtbl.find_opt waiters (tid t) with
    | None -> ()
    | Some ids ->
        Hashtbl.remove waiters (tid t);
        List.iter
          (fun cid ->
            match conn cid with
            | None -> ()
            | Some c -> (
                match (t.t_phase, t.t_record) with
                | Done, Some r -> Wire.send c (Wire.ok r)
                | Cancelled, _ ->
                    Wire.send c (Wire.err Wire.e_gone "job was cancelled")
                | _ -> Wire.send c (Wire.err Wire.e_draining "server drained")))
          ids
  in

  let p =
    Supervise.policy ~cache:cfg.cache ~retries:cfg.retries
      ~backoff_ms:cfg.backoff_ms ~timeout_s:cfg.timeout_s ~model:cfg.model
      ~log:cfg.log ~verbose:cfg.verbose
      ~record:(fun js record ->
        let t = Hashtbl.find tickets js.job.Job.id in
        t.t_phase <- Done;
        t.t_record <- Some record;
        Supervise.emit s record;
        notify_waiters t;
        Option.iter
          (fun c -> c.Wire.data.c_completed <- c.Wire.data.c_completed + 1)
          (conn t.t_client);
        Supervise.touch s)
      ~requeue:(fun js ~at ->
        Supervise.delay retry js.job.Job.id ~at;
        Supervise.touch s)
  in

  let cancel_done t =
    t.t_phase <- Cancelled;
    incr cancelled;
    notify_waiters t;
    Supervise.touch s
  in

  let handle_exit r status =
    let t = r.r_ticket in
    let stderr = stderr_path (tid t) and started = r.r_started in
    t.t_phase <- Queued;
    Supervise.exited p t.t_js (Some status) ~hung:r.r_timed_out ~started ~stderr
      ~clean:(fun () ->
        match Runner.read_result (result_path (tid t)) with
        | Some v ->
            Supervise.finish p t.t_js v ~cached:false ~ms:(Supervise.ms_since started)
        | None ->
            Supervise.failed p t.t_js
              ~reason:"worker exited 0 but left no valid result file" ~stderr
              ~started)
      ~cancelled:(fun () ->
        (* Drain parking goes back to the owner's queue for the
           checkpoint. *)
        if t.t_cancel_requested then cancel_done t
        else Queue.add (tid t) (queue_of t.t_client))
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
    (* The daemon reaps on its select tick, so it drops the exit channel
       at once. *)
    let { Runner.pid; fd } =
      Runner.spawn exec ~result_path:(result_path (tid t))
        ~stderr_path:(stderr_path (tid t)) t.t_js.job t.t_js.mat
    in
    Unix.close fd;
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "worker %d started %s (attempt %d/%d)" pid
           (Job.label t.t_js.job) (t.t_js.attempts + 1) cfg.retries);
    t.t_phase <- Running;
    running :=
      {
        r_ticket = t;
        r_pid = pid;
        r_started = Unix.gettimeofday ();
        r_timed_out = false;
        r_term_sent = false;
      }
      :: !running
  in

  let queue_depth () =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) queues 0
    + Supervise.queued retry
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
              if owner <> orphan_client && conn owner = None then begin
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

  let rec dispatch () =
    if (not !drain) && List.length !running < cfg.workers then
      match pop_next_ticket () with
      | None -> ()
      | Some t ->
          Obs.Gauge.set queue_gauge (queue_depth ());
          if Supervise.admit p t.t_js then spawn t;
          Obs.Gauge.set workers_gauge (List.length !running);
          dispatch ()
  in

  let phase_string t =
    match t.t_phase with
    | Queued ->
        if List.mem (tid t) (Supervise.to_list retry) then "backoff" else "queued"
    | Running -> "running"
    | Cancelled -> "cancelled"
    | Done -> "done"
  in

  let stats_json () =
    let per_client =
      List.map
        (fun c ->
          let c = c.Wire.data in
          Printf.sprintf "{\"client\":%d,\"submitted\":%d,\"completed\":%d}"
            c.c_id c.c_submitted c.c_completed)
        (Wire.conns srv)
      |> List.sort compare
    in
    let wall = Unix.gettimeofday () -. t0 in
    let cs = Verdict_cache.stats cfg.cache in
    Printf.sprintf
      "{\"clients\":%d,\"clients_total\":%d,\"queue_depth\":%d,\"running\":%d,\"submitted\":%d,\"completed\":%d,\"violations\":%d,\"quarantined\":%d,\"cancelled\":%d,\"served_from_cache\":%d,\"sym_dedup\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_entries\":%d,\"states_total\":%d,\"states_per_sec\":%.1f,\"queue_depth_max\":%d,\"queue_depth_mean\":%.1f,\"workers_max\":%d,\"workers_mean\":%.1f,\"uptime_s\":%.1f,\"draining\":%b,\"per_client\":[%s]}"
      (List.length (Wire.conns srv))
      !clients_total (queue_depth ())
      (List.length !running) !submitted p.completed p.violations
      (List.length p.quarantined)
      !cancelled p.served_from_cache p.sym_dedup cs.Verdict_cache.hits
      cs.Verdict_cache.misses cs.Verdict_cache.entries p.states
      (if wall > 0. then float_of_int p.states /. wall else 0.)
      (Obs.Gauge.max_level queue_gauge)
      (Obs.Gauge.mean queue_gauge)
      (Obs.Gauge.max_level workers_gauge)
      (Obs.Gauge.mean workers_gauge)
      wall !drain
      (String.concat "," per_client)
  in

  let submit c jobline =
    let client = c.Wire.data in
    if !drain then Wire.send c (Wire.err Wire.e_draining "server is draining")
    else
      match Job.parse_string ~default_machine:cfg.machine jobline with
      | Error e -> Wire.send c (Wire.err Wire.e_bad e)
      | Ok [] -> Wire.send c (Wire.err Wire.e_bad "job line expands to no jobs")
      | Ok jobs ->
          let first = !next_ticket in
          List.iter
            (fun j ->
              let id = !next_ticket in
              incr next_ticket;
              incr submitted;
              client.c_submitted <- client.c_submitted + 1;
              ignore (add_ticket id { j with Job.id } client.c_id : ticket))
            jobs;
          Obs.Gauge.set queue_gauge (queue_depth ());
          let last = !next_ticket - 1 in
          if first = last then
            Wire.send c (Wire.ok (Printf.sprintf "ticket=%d" first))
          else Wire.send c (Wire.ok (Printf.sprintf "tickets=%d-%d" first last));
          Supervise.touch s
  in

  let handle c req =
    let no_ticket id =
      Wire.send c (Wire.err Wire.e_unknown (Printf.sprintf "no ticket %d" id))
    in
    match req with
    | Wire.Submit jobline -> submit c jobline
    | Wire.Status id -> (
        match Hashtbl.find_opt tickets id with
        | None -> no_ticket id
        | Some t ->
            Wire.send c (Wire.ok (Printf.sprintf "%d %s" id (phase_string t))))
    | Wire.Result { ticket = id; wait } -> (
        match Hashtbl.find_opt tickets id with
        | None -> no_ticket id
        | Some { t_phase = Done; t_record = Some r; _ } -> Wire.send c (Wire.ok r)
        | Some { t_phase = Cancelled; _ } ->
            Wire.send c (Wire.err Wire.e_gone "job was cancelled")
        | Some t ->
            if wait then
              Hashtbl.replace waiters id
                (c.Wire.data.c_id
                :: Option.value ~default:[] (Hashtbl.find_opt waiters id))
            else
              Wire.send c
                (Wire.err Wire.e_conflict
                   (Printf.sprintf "ticket %d is %s; use RESULT %d WAIT" id
                      (phase_string t) id)))
    | Wire.Cancel id -> (
        match Hashtbl.find_opt tickets id with
        | None -> no_ticket id
        | Some t -> (
            match t.t_phase with
            | Done | Cancelled ->
                Wire.send c
                  (Wire.err Wire.e_conflict
                     (Printf.sprintf "ticket %d already %s" id (phase_string t)))
            | Queued ->
                t.t_cancel_requested <- true;
                Supervise.undelay retry id;
                cancel_done t;
                Wire.send c (Wire.ok (Printf.sprintf "%d cancelled" id))
            | Running ->
                t.t_cancel_requested <- true;
                List.iter (fun r -> if tid r.r_ticket = id then terminate r) !running;
                Wire.send c (Wire.ok (Printf.sprintf "%d cancelling" id))))
    | Wire.Stats -> Wire.send c (Wire.ok (stats_json ()))
    | Wire.Drain ->
        drain := true;
        Wire.send c
          (Wire.ok
             (Printf.sprintf "draining pending=%d running=%d" (queue_depth ())
                (List.length !running)))
    | Wire.Hello _ | Wire.Ping | Wire.Bye -> (* answered by [Wire.service] *) ()
  in

  let admit () =
    if !drain then Error "server is draining"
    else if List.length (Wire.conns srv) >= cfg.max_clients then
      Error "too many clients"
    else begin
      let id = !next_conn in
      incr next_conn;
      incr clients_total;
      if cfg.verbose then cfg.log (Printf.sprintf "client %d connected" id);
      Ok { c_id = id; c_submitted = 0; c_completed = 0 }
    end
  in

  cfg.log
    (Printf.sprintf "serving on %s (model %s, %d worker(s))" cfg.socket
       model_name cfg.workers);

  let drain_announced = ref false in
  Supervise.supervise s write_ckpt
    ~finally:(fun () -> Wire.shutdown srv)
    (fun () ->
      while (not !drain) || !running <> [] do
        let now = Unix.gettimeofday () in
        (* Drain: forward SIGTERM once to every in-flight worker. *)
        if !drain then begin
          if not !drain_announced then begin
            drain_announced := true;
            cfg.log
              (Printf.sprintf "draining: %d worker(s) in flight, %d job(s) queued"
                 (List.length !running) (queue_depth ()))
          end;
          List.iter terminate !running
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
        running :=
          List.filter
            (fun r ->
              match Unix.waitpid [ Unix.WNOHANG ] r.r_pid with
              | 0, _ -> true
              | _, status ->
                  handle_exit r status;
                  false
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
            !running;
        Obs.Gauge.set workers_gauge (List.length !running);
        Supervise.promote retry now ~into:(fun id ->
            Queue.add id (queue_of (Hashtbl.find tickets id).t_client));
        dispatch ();
        Supervise.save s write_ckpt;
        (* I/O, on the tick. *)
        let rfds, wfds = Wire.fds srv in
        let rs, ws =
          Runner.sleep_until s.Supervise.wake
            (Unix.gettimeofday () +. tick_s -. 0.001)
            rfds wfds
        in
        Wire.service srv ~admit ~handle rs ws
      done;
      (* Drained: every waiter still registered is waiting on a ticket
         that will not finish in this process. *)
      Hashtbl.iter
        (fun _ ids ->
          List.iter
            (fun cid ->
              Option.iter
                (fun c -> Wire.send c (Wire.err Wire.e_draining "server drained"))
                (conn cid))
            ids)
        waiters;
      Hashtbl.reset waiters;
      (* Best-effort flush of goodbye frames before the sockets close. *)
      Wire.flush srv);
  let pending = List.length (pending_tickets ()) in
  {
    submitted = !submitted;
    completed = p.completed;
    violations = p.violations;
    quarantined = List.length p.quarantined;
    cancelled = !cancelled;
    pending;
    served_from_cache = p.served_from_cache;
    sym_dedup = p.sym_dedup;
    states_total = p.states;
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
