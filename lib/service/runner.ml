(* The shared job-execution layer under the service front ends: the
   one-shot [Batch] supervisor, the [Fleet] and the long-lived [Daemon].

   Everything here is the per-attempt machinery: turning a job into a
   program plus cache keys, the worker processes (persistent workers fed
   over a request pipe for batch and fleet, a fork per attempt for the
   daemon), the CRC-framed replies, and the JSONL records the front ends
   stream.  The scheduling policies (retry queues, fairness, drain) stay
   with the callers. *)

type exec = {
  x_model : Worker.model;
  x_fuel : int option;
  x_spill_dir : string option;
  x_mem_budget : int option;
}

type mat = {
  m_prog : (Prog.t * string * string) option;
  m_error : string option;
}

let materialize ~model (j : Job.t) =
  let with_prog p =
    let model = Worker.model_name model in
    ( Some
        ( p,
          Verdict_cache.key ~prog:p ~machine:j.Job.machine ~model,
          Verdict_cache.sym_key ~prog:p ~machine:j.Job.machine ~model ),
      None )
  in
  let prog, m_error =
    match j.Job.source with
    | Job.Wedge -> (None, None)
    | Job.Builtin n -> (
        match Litmus_classics.find n with
        | Some e -> with_prog e.Litmus_classics.prog
        | None -> (None, Some (Printf.sprintf "unknown built-in test %S" n)))
    | Job.File p -> (
        match Litmus_parse.parse_file p with
        | prog -> with_prog prog
        | exception Litmus_parse.Parse_error { line; col; msg } ->
            ( None,
              Some (Printf.sprintf "%s:%d:%d: parse error: %s" p line col msg)
            )
        | exception Sys_error e -> (None, Some e))
    | Job.Seed { seed; config } ->
        with_prog (Litmus_gen.generate ~config seed)
  in
  let m_prog, m_error =
    if m_error <> None then (prog, m_error)
    else if Machines.find j.Job.machine = None then
      (None, Some (Printf.sprintf "unknown machine %S" j.Job.machine))
    else (prog, m_error)
  in
  { m_prog; m_error }

(* --- the forked worker ------------------------------------------------------- *)

let result_kind = "weakord.batch.result"

(* The CRC-framed result-file protocol of the daemon's per-attempt
   workers: a child installs its payload atomically under a snapshot
   kind; the parent accepts it only when the frame validates under that
   exact kind, so a torn write or a stale file of another kind degrades
   to a retried attempt, never a wrong result. *)
let write_framed ~kind ~meta path payload =
  Atomic_io.write_file ~fsync:false path
    (Snapshot.frame ~kind ~meta ~payload)

let read_framed ~kind path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | bytes -> (
      match Snapshot.unframe bytes with
      | Error _ -> None
      | Ok c ->
          if String.equal c.Snapshot.kind kind then Some c.Snapshot.payload
          else None)

let redirect_stderr path =
  try
    let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Unix.dup2 fd Unix.stderr;
    Unix.close fd
  with Unix.Unix_error _ -> ()

let fork_worker child =
  (* The child exits via [Unix._exit], so anything sitting in the
     parent's buffered channels at fork time would otherwise be written
     twice (once per process). *)
  flush Stdlib.stdout;
  flush Stdlib.stderr;
  match Unix.fork () with
  | 0 ->
      (* An exception must not unwind into the parent's code, which the
         child shares: that code would run the supervisor's cleanup (and
         delete its scratch files) from the child. *)
      (try (child () : unit)
       with e ->
         (try
            prerr_endline (Printexc.to_string e);
            flush Stdlib.stderr
          with _ -> ());
         Unix._exit 10);
      Unix._exit 0
  | pid -> pid

(* --- exit channels ----------------------------------------------------------- *)

type child = { pid : int; fd : Unix.file_descr }

(* The parent closes its copy of the write end before [fork_watched]
   returns, so it is gone before the next fork: no sibling ever holds
   another worker's write end, and EOF on [fd] means the worker's
   process is gone (the kernel closes a dying process's files). *)
let fork_watched body =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match
    fork_worker (fun () ->
        Unix.close rd;
        body ())
  with
  | pid ->
      Unix.close wr;
      { pid; fd = rd }
  | exception e ->
      Unix.close rd;
      Unix.close wr;
      raise e

(* Blocking on purpose: the kernel closes a dying child's files before
   its exit status can be collected, so a [WNOHANG] call right after EOF
   may still return 0. *)
let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap c =
  close_quietly c.fd;
  wait_exit c.pid

(* --- persistent workers ------------------------------------------------------- *)

type worker = {
  pid : int;
  req : Unix.file_descr;
  rsp : Unix.file_descr;
  kind : string;
  inbox : Buffer.t;
  mutable reaped : Unix.process_status option;
}

(* Both directions carry length-prefixed messages: eight hex digits,
   then the bytes.  Requests are the caller's own strings; replies are
   [Snapshot.frame]s, so a reply is checked by CRC and kind before the
   parent trusts it. *)
let header = 8

let rec write_all fd s off =
  if off < String.length s then
    match Unix.single_write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let write_message fd s =
  write_all fd (Printf.sprintf "%08x" (String.length s) ^ s) 0

(* Blocking, in the child: [None] at EOF, which is how the parent says
   it has no more work. *)
let read_message fd =
  let rec fill b off =
    off = Bytes.length b
    ||
    match Unix.read fd b off (Bytes.length b - off) with
    | 0 -> false
    | n -> fill b (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill b off
  in
  let h = Bytes.create header in
  if not (fill h 0) then None
  else
    match int_of_string_opt ("0x" ^ Bytes.to_string h) with
    | None -> None
    | Some len ->
        let b = Bytes.create len in
        if fill b 0 then Some (Bytes.unsafe_to_string b) else None

let fork_persistent ~kind ?(close = []) ~siblings serve =
  let req_rd, req_wr = Unix.pipe ~cloexec:true () in
  let rsp_rd, rsp_wr = Unix.pipe ~cloexec:true () in
  match
    fork_worker (fun () ->
        (* Nothing execs, so the child inherits every descriptor the
           parent holds.  A sibling's request write end kept here would
           keep that sibling from ever reading EOF. *)
        List.iter close_quietly (req_wr :: rsp_rd :: close);
        List.iter
          (fun (s : worker) ->
            close_quietly s.req;
            close_quietly s.rsp)
          siblings;
        let cancelled = ref false in
        Sys.set_signal Sys.sigterm
          (Sys.Signal_handle (fun _ -> cancelled := true));
        Sys.set_signal Sys.sigint Sys.Signal_ignore;
        let reply payload =
          write_message rsp_wr (Snapshot.frame ~kind ~meta:"" ~payload)
        in
        let rec loop () =
          (* Reset before the read, not after it: a SIGTERM sent once
             the request is on its way must still cancel that job. *)
          cancelled := false;
          match read_message req_rd with
          | None -> ()
          | Some r ->
              serve ~cancelled:(fun () -> !cancelled) ~reply r;
              loop ()
        in
        loop ())
  with
  | pid ->
      Unix.close req_rd;
      Unix.close rsp_wr;
      Unix.set_nonblock rsp_rd;
      {
        pid;
        req = req_wr;
        rsp = rsp_rd;
        kind;
        inbox = Buffer.create 256;
        reaped = None;
      }
  | exception e ->
      List.iter close_quietly [ req_rd; req_wr; rsp_rd; rsp_wr ];
      raise e

let send (w : worker) r =
  match write_message w.req r with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* Idempotent: a second call must neither close descriptor numbers the
   process may have reused nor wait for a pid it no longer owns. *)
let retire (w : worker) =
  match w.reaped with
  | Some status -> status
  | None ->
      close_quietly w.req;
      close_quietly w.rsp;
      let status = wait_exit w.pid in
      w.reaped <- Some status;
      status

let kill (w : worker) =
  if Option.is_none w.reaped then begin
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (retire w : Unix.process_status)
  end

type event = Reply of string | Nothing | Died of Unix.process_status | Corrupt

(* Supervisors are single-threaded; one scratch buffer serves them all.
   Allocated on first use, so a process that never supervises a worker
   (the CLI's other commands, the benchmark's other workloads) does not
   carry it in its heap. *)
let chunk = lazy (Bytes.create 4096)

(* A complete message in the inbox, if one has arrived. *)
let take_frame (w : worker) =
  let b = w.inbox in
  let have = Buffer.length b in
  if have < header then `Wait
  else
    match int_of_string_opt ("0x" ^ Buffer.sub b 0 header) with
    | None -> `Bad
    | Some len when have < header + len -> `Wait
    | Some len -> (
        let frame = Buffer.sub b header len in
        let rest = Buffer.sub b (header + len) (have - header - len) in
        Buffer.clear b;
        Buffer.add_string b rest;
        match Snapshot.unframe frame with
        | Ok c when String.equal c.Snapshot.kind w.kind -> `Frame c.Snapshot.payload
        | _ -> `Bad)

let receive (w : worker) =
  let chunk = Lazy.force chunk in
  match Unix.read w.rsp chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> Nothing
  | 0 ->
      (* Whatever part of a frame arrived is dropped with the worker. *)
      Died (retire w)
  | n -> (
      Buffer.add_subbytes w.inbox chunk 0 n;
      match take_frame w with
      | `Wait -> Nothing
      | `Frame payload -> Reply payload
      | `Bad ->
          kill w;
          Corrupt)

let idle_alive w =
  match receive w with
  | Nothing -> true
  | Died _ | Corrupt -> false
  | Reply _ ->
      kill w;
      false

(* --- waking the supervisor --------------------------------------------------- *)

type wake = {
  w_rd : Unix.file_descr;
  w_wr : Unix.file_descr;
  w_term : Sys.signal_behavior;
  w_int : Sys.signal_behavior;
  w_pipe : Sys.signal_behavior;
}

let wake_on_drain drain =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  (* The byte makes a signal handled anywhere between the loop's [drain]
     check and its [select] end that [select] at once, instead of
     sleeping until the next deadline. *)
  let handler _ =
    drain := true;
    try ignore (Unix.single_write_substring wr "!" 0 1 : int)
    with Unix.Unix_error _ -> ()
  in
  let w_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
  let w_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
  (* A request to a worker that died idle, or a write to a vanished
     stats client, must be an error code, not a process-killing signal. *)
  let w_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  { w_rd = rd; w_wr = wr; w_term; w_int; w_pipe }

let restore w =
  Sys.set_signal Sys.sigterm w.w_term;
  Sys.set_signal Sys.sigint w.w_int;
  Sys.set_signal Sys.sigpipe w.w_pipe;
  close_quietly w.w_rd;
  close_quietly w.w_wr

let sleep_until w until rfds wfds =
  (* The 1 s cap is only a backstop.  OCaml runs a signal handler at a
     safe point; a signal that arrives after the runtime's last check
     for pending signals but before the [select] system call starts
     neither interrupts the call nor has written its byte yet, and
     would otherwise sleep until [until].  The 1 ms slack wakes the
     loop just past a deadline, so a strict [>] comparison against it
     already holds. *)
  let timeout =
    Float.min 1. (Float.max 0. (until -. Unix.gettimeofday ()) +. 0.001)
  in
  match Unix.select (w.w_rd :: rfds) wfds [] timeout with
  | rs, ws, _ ->
      if List.mem w.w_rd rs then begin
        let b = Bytes.create 64 in
        try
          while Unix.read w.w_rd b 0 64 > 0 do
            ()
          done
        with Unix.Unix_error _ -> ()
      end;
      (List.filter (fun fd -> fd <> w.w_rd) rs, ws)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

(* --- one attempt at a job ------------------------------------------------------ *)

(* Runs in a worker.  Returns the verdict, or ends the process as the
   exit-status contract says: 9 when cancelled, 10 when the engine
   raised; a wedge job spins until a signal ends it. *)
let attempt x ~cancelled ~stderr_path (j : Job.t) mat =
  redirect_stderr stderr_path;
  match j.Job.source with
  | Job.Wedge ->
      (* The poison pill for chaos tests: announce, then spin until the
         supervisor's SIGKILL (timeout) or SIGTERM (drain) lands. *)
      prerr_string (Printf.sprintf "job %d: wedged on purpose\n" j.Job.id);
      flush Stdlib.stderr;
      while not (cancelled ()) do
        (try Unix.sleepf 0.02 with Unix.Unix_error _ -> ())
      done;
      Unix._exit 9
  | _ -> (
      let prog, _, _ = Option.get mat.m_prog in
      let machine = Option.get (Machines.find j.Job.machine) in
      (* Each attempt spills into its own subdirectory: concurrent
         workers must never share run files, and a retry must not trip
         over a killed attempt's leftovers (the store wipes stale runs
         at creation, and creates the directory and its parents if
         missing).  The subdirectory goes once the attempt ends. *)
      let spill_dir =
        Option.map
          (fun d -> Filename.concat d (Printf.sprintf "job%d" j.Job.id))
          x.x_spill_dir
      in
      match
        Fun.protect
          ~finally:(fun () -> Option.iter Spill_store.remove_dir spill_dir)
          (fun () ->
            Worker.run ~cancel:cancelled ?fuel:x.x_fuel ?spill_dir
              ?mem_budget:x.x_mem_budget ~model:x.x_model ~machine prog)
      with
      | Ok v -> v
      | Error `Cancelled -> Unix._exit 9
      | exception e ->
          prerr_string ("worker exception: " ^ Printexc.to_string e ^ "\n");
          flush Stdlib.stderr;
          Unix._exit 10)

let verdict_of_payload payload =
  match (Marshal.from_string payload 0 : Verdict_cache.verdict) with
  | v -> Some v
  | exception (Failure _ | Invalid_argument _) -> None

let fork_job_worker x ~siblings lookup =
  fork_persistent ~kind:result_kind ~siblings (fun ~cancelled ~reply id ->
      let j, mat, stderr_path = lookup (int_of_string id) in
      reply (Marshal.to_string (attempt x ~cancelled ~stderr_path j mat) []))

(* The daemon's per-attempt worker.  Never returns; never flushes the
   parent's buffered channels ([Unix._exit], not [exit]). *)
let child_exec x ~result_path ~stderr_path (j : Job.t) mat =
  let cancelled = ref false in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> cancelled := true));
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  let v = attempt x ~cancelled:(fun () -> !cancelled) ~stderr_path j mat in
  write_framed ~kind:result_kind
    ~meta:(string_of_int j.Job.id)
    result_path
    (Marshal.to_string v []);
  Unix._exit 0

let spawn x ~result_path ~stderr_path j mat =
  (try Sys.remove result_path with Sys_error _ -> ());
  fork_watched (fun () -> child_exec x ~result_path ~stderr_path j mat)

let read_result path =
  Option.bind (read_framed ~kind:result_kind path) verdict_of_payload

let read_tail ?(max_bytes = 2048) path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> ""
  | s ->
      let s =
        if String.length s <= max_bytes then s
        else String.sub s (String.length s - max_bytes) max_bytes
      in
      String.trim s

let signal_name = function
  | s when s = Sys.sigkill -> "SIGKILL"
  | s when s = Sys.sigterm -> "SIGTERM"
  | s when s = Sys.sigsegv -> "SIGSEGV"
  | s when s = Sys.sigabrt -> "SIGABRT"
  | s -> Printf.sprintf "signal %d" s

(* --- JSONL rendering --------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The stable prefix every record shares: job identity plus, for seed
   jobs, the full reproduction recipe (the determinism contract makes
   [seed + gen flags] a complete one). *)
let record_prefix (j : Job.t) =
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"job\":%d,\"kind\":\"%s\",\"name\":\"%s\",\"machine\":\"%s\"" j.Job.id
    (Job.kind_string j.Job.source)
    (json_escape (Job.source_name j.Job.source))
    (json_escape j.Job.machine);
  (match j.Job.source with
  | Job.Seed { seed; _ } ->
      Printf.bprintf b ",\"seed\":%d,\"gen\":\"%s\"" seed
        (json_escape (Job.gen_args j.Job.source))
  | _ -> ());
  Buffer.contents b

(* Volatile fields last, in a fixed order, so tooling can strip them
   with one regular expression when comparing runs "modulo timestamps"
   (resume vs. uninterrupted, cached vs. cold). *)
let record_trailer ~cached ~attempts ~ms =
  Printf.sprintf ",\"cached\":%b,\"attempts\":%d,\"ms\":%.1f}" cached attempts
    ms

let verdict_record j (v : Verdict_cache.verdict) ~cached ~attempts ~ms =
  Printf.sprintf
    "%s,\"status\":\"ok\",\"outcomes\":%d,\"appears_sc\":%b,\"obeys_model\":%b,\"violation\":%b,\"exists\":%s,\"states\":%d,\"complete\":%b,\"spilled_runs\":%d%s"
    (record_prefix j)
    (List.length v.Verdict_cache.v_outcomes)
    v.Verdict_cache.v_appears_sc v.Verdict_cache.v_obeys_model
    v.Verdict_cache.v_violation
    (match v.Verdict_cache.v_allows_exists with
    | Some true -> "true"
    | Some false -> "false"
    | None -> "null")
    v.Verdict_cache.v_states v.Verdict_cache.v_complete
    v.Verdict_cache.v_spilled_runs
    (record_trailer ~cached ~attempts ~ms)

let quarantine_record j ~reason ~stderr ~attempts ~ms =
  Printf.sprintf
    "%s,\"status\":\"quarantined\",\"reason\":\"%s\",\"stderr\":\"%s\"%s"
    (record_prefix j) (json_escape reason) (json_escape stderr)
    (record_trailer ~cached:false ~attempts ~ms)
