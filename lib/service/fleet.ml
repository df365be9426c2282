(* The sharded fuzz fleet: a fault-tolerant supervisor over the
   three-way differential oracle in [Fuzz].

   Process architecture mirrors [Batch]: the supervisor forks one shard
   worker per work-unit attempt (never more than [cfg.shards] in
   flight) and does no verification itself.  A shard streams its unit's
   seeds through [Fuzz.check_prog], heartbeats the seed it is about to
   check into its slot of a shared mapping, and ships its accumulated
   tallies back in a CRC-framed result file; all parent-side state
   transitions happen in one thread, in a loop that sleeps until an exit
   channel ([Runner.fork_watched]), the stats socket or a drain signal
   speaks, or the next deadline falls due.

   The failure matrix:

     exit 0 + valid result, next > hi  -> unit done (emit its records)
     exit 9 + valid result             -> drained at a seed boundary:
                                          merge the partial, requeue
     no heartbeat for hang_timeout_s   -> SIGKILL + bisect: seeds before
                                          the suspect keep the progress,
                                          seeds after become fresh work,
                                          the suspect retries alone
     any other death                   -> failed attempt: requeue whole
                                          (a transient kill must not
                                          split units, or resumed and
                                          uninterrupted campaigns would
                                          emit different records)
     suspect attempts exhausted        -> poison: quarantine dossier
                                          with a ddmin-minimized
                                          reproducer; campaign continues

   Records are emitted only when a unit finalizes, so drained partials
   never double-emit; the volatile [cached/attempts/ms] trailer comes
   from [Runner.record_trailer], so one regex strips timing from fleet,
   batch and daemon streams alike. *)

type cfg = {
  oracle : Fuzz.cfg;
  shards : int;
  unit_seeds : int;
  hang_timeout_s : float;
  retries : int;
  backoff_ms : int;
  out : string option;
  checkpoint : string option;
  resume : string option;
  deadline_s : float option;
  mem_budget : int option;
  wedge_seeds : int list;
  stats_socket : string option;
  log : string -> unit;
  verbose : bool;
}

let default_cfg =
  {
    oracle = Fuzz.default_cfg;
    shards = 4;
    unit_seeds = 256;
    hang_timeout_s = 30.;
    retries = 3;
    backoff_ms = 100;
    out = None;
    checkpoint = None;
    resume = None;
    deadline_s = None;
    mem_budget = None;
    wedge_seeds = [];
    stats_socket = None;
    log = ignore;
    verbose = false;
  }

type poison = {
  p_seed : int;
  p_reason : string;
  p_attempts : int;
  p_report : string option;
}

type summary = {
  f_units_total : int;
  f_units_done : int;
  f_units_requeued : int;
  f_units_split : int;
  f_pending : int;
  f_programs : int;
  f_checks : int;
  f_disagreements : int;
  f_sim_runs : int;
  f_sim_wedged : int;
  f_sim_skipped : int;
  f_states : int;
  f_poison : poison list;
  f_poison_total : int;
  f_wall_s : float;
  f_suspended : bool;
}

exception Resume_rejected of string

let exit_code s =
  if s.f_suspended then 3
  else if s.f_disagreements > 0 then 1
  else if s.f_poison_total > 0 then 4
  else 0

(* --- the unit plan ----------------------------------------------------------- *)

let units_of_range ~lo ~hi ~unit_seeds =
  if lo > hi then invalid_arg "Fleet.units_of_range: empty seed range";
  if unit_seeds < 1 then
    invalid_arg "Fleet.units_of_range: unit_seeds must be >= 1";
  let rec go a acc =
    if a > hi then List.rev acc
    else
      let b = min hi (a + unit_seeds - 1) in
      go (b + 1) ((a, b) :: acc)
  in
  go lo []

(* The injected-hang rule.  The >= 2 guard makes the rule a usable
   ddmin predicate: the shrinker can remove instructions down to a
   two-instruction reproducer but never to an empty program. *)
let wedge_fires ~wedge_seeds ~seed prog =
  List.mem seed wedge_seeds && Prog.num_instrs prog >= 2

(* --- accumulated tallies ------------------------------------------------------ *)

(* What a shard ships back: [Fuzz.seed_report] sums plus each
   disagreement tagged with its seed.  Merged exactly once per seed
   across the campaign — on failed attempts no result file exists, and
   the deterministic oracle recomputes identical tallies on retry. *)
type acc = {
  a_programs : int;
  a_checks : int;
  a_disagreements : (int * string * string) list;  (* seed, check, detail *)
  a_sim_runs : int;
  a_sim_wedged : int;
  a_sim_skipped : int;
  a_states : int;
}

let acc_zero =
  {
    a_programs = 0;
    a_checks = 0;
    a_disagreements = [];
    a_sim_runs = 0;
    a_sim_wedged = 0;
    a_sim_skipped = 0;
    a_states = 0;
  }

let acc_add a ~seed (r : Fuzz.seed_report) =
  {
    a_programs = a.a_programs + 1;
    a_checks = a.a_checks + r.Fuzz.sr_checks;
    a_disagreements =
      a.a_disagreements
      @ List.map (fun (c, d) -> (seed, c, d)) r.Fuzz.sr_disagreements;
    a_sim_runs = a.a_sim_runs + r.Fuzz.sr_sim_runs;
    a_sim_wedged = a.a_sim_wedged + r.Fuzz.sr_sim_wedged;
    a_sim_skipped = a.a_sim_skipped + r.Fuzz.sr_sim_skipped;
    a_states = a.a_states + r.Fuzz.sr_states;
  }

let acc_union a b =
  {
    a_programs = a.a_programs + b.a_programs;
    a_checks = a.a_checks + b.a_checks;
    a_disagreements = a.a_disagreements @ b.a_disagreements;
    a_sim_runs = a.a_sim_runs + b.a_sim_runs;
    a_sim_wedged = a.a_sim_wedged + b.a_sim_wedged;
    a_sim_skipped = a.a_sim_skipped + b.a_sim_skipped;
    a_states = a.a_states + b.a_states;
  }

type ustate = {
  u_lo : int;
  u_hi : int;
  mutable u_frontier : int;  (* first unchecked seed *)
  mutable u_acc : acc;  (* merged tallies for seeds below the frontier *)
  mutable u_attempts : int;
  mutable u_eligible_at : float;
}

let ukey u = Printf.sprintf "%d..%d" u.u_lo u.u_hi

(* --- the shard worker --------------------------------------------------------- *)

let unit_kind = "weakord.fleet.unit"

(* Heartbeats live in shared memory: each shard slot is two int64 words,
   the seed the shard is about to check and the time it started it, in
   a mapping every shard inherits.  A beat is two stores and never wakes
   the supervisor, which reads the slots when it wakes for something
   else or when a conviction falls due.  (A line per seed on the exit
   channel would wake it once per seed and preempt the shard.) *)
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
        (Unix.map_file fd Bigarray.int64 Bigarray.c_layout true
           [| 2 * slots |]))

(* The time is stored first.  The supervisor reads the two words
   separately; a seed read with the previous beat's time can only make a
   conviction look due early by the few nanoseconds the second store
   takes to land. *)
let beat (b : beats) slot seed =
  b.{(2 * slot) + 1} <- Int64.bits_of_float (Unix.gettimeofday ());
  b.{2 * slot} <- Int64.of_int seed

let beat_seed (b : beats) slot = Int64.to_int b.{2 * slot}
let beat_time (b : beats) slot = Int64.float_of_bits b.{(2 * slot) + 1}

(* The oracle a shard actually runs: no quarantine writes, no shrinking,
   no logging, no deadline — all campaign policy stays in the parent. *)
let probe_oracle oracle =
  {
    oracle with
    Fuzz.quarantine = None;
    shrink = false;
    progress = 0;
    log = ignore;
    deadline_s = None;
  }

(* Runs in the child.  Heartbeat first, then check: the parent reads a
   stale heartbeat as "wedged on exactly this seed".  A wedge seed spins
   forever and ignores SIGTERM — a faithful model of a real engine hang,
   which only the watchdog's SIGKILL resolves. *)
let shard_body ~oracle ~wedge_seeds ~result ~stderr ~frontier ~hi ~key ~beat
    () =
  let cancelled = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> cancelled := true));
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Runner.redirect_stderr stderr;
  let probe = probe_oracle oracle in
  let acc = ref acc_zero in
  let ship next code =
    Runner.write_framed ~kind:unit_kind ~meta:key result
      (Marshal.to_string (!acc, next) []);
    Unix._exit code
  in
  let seed = ref frontier in
  while !seed <= hi do
    if !cancelled then ship !seed 9;
    beat !seed;
    let prog = Litmus_gen.generate ~config:probe.Fuzz.config !seed in
    if wedge_fires ~wedge_seeds ~seed:!seed prog then
      while true do
        try Unix.sleepf 0.05 with Unix.Unix_error _ -> ()
      done
    else begin
      let r = Fuzz.check_prog probe prog in
      acc := acc_add !acc ~seed:!seed r;
      incr seed
    end
  done;
  ship (hi + 1) 0

let read_unit_result path =
  match Runner.read_framed ~kind:unit_kind path with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : acc * int) with
      | v -> Some v
      | exception (Failure _ | Invalid_argument _) -> None)

(* --- checkpoint --------------------------------------------------------------- *)

let ckpt_kind = "weakord.fleet"

type ckpt = {
  k_fingerprint : string;
  k_pending : (int * int * int * int * acc) list;
      (* lo, hi, frontier, attempts, merged tallies *)
  k_units_total : int;
  k_units_done : int;
  k_units_requeued : int;
  k_units_split : int;
  k_programs : int;
  k_checks : int;
  k_disagreements : int;
  k_sim_runs : int;
  k_sim_wedged : int;
  k_sim_skipped : int;
  k_states : int;
  k_poison : (int * string * int) list;  (* seed, reason, attempts *)
}

let write_ckpt path ck =
  Snapshot.write_file path
    (Snapshot.frame ~kind:ckpt_kind
       ~meta:
         (Printf.sprintf "%d pending unit(s), %d poison"
            (List.length ck.k_pending)
            (List.length ck.k_poison))
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
            (Resume_rejected (path ^ ": checkpoint payload does not unmarshal")))

(* The campaign identity a checkpoint must match before resuming.
   Deliberately excludes the shard count — an interrupted 4-shard
   campaign may resume on 8 shards; only the work and the oracle must
   agree. *)
let fingerprint cfg ~lo ~hi =
  let o = cfg.oracle in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            string_of_int lo;
            string_of_int hi;
            string_of_int cfg.unit_seeds;
            Format.asprintf "%a" Litmus_gen.pp_config o.Fuzz.config;
            String.concat "," (List.map Machines.name o.Fuzz.machines);
            string_of_bool o.Fuzz.sim;
            string_of_int o.Fuzz.sim_limit;
            String.concat "," (List.map string_of_int cfg.wedge_seeds);
          ]))

(* --- JSONL records ------------------------------------------------------------ *)

(* Stable fields first, [Runner.record_trailer] last — the same
   strip-one-regex contract as batch/daemon records.  Poison reasons
   must carry no timings, so resumed and uninterrupted campaigns render
   byte-identical records modulo the trailer. *)

let unit_record ~key ~gen a ~attempts ~ms =
  Printf.sprintf
    "{\"unit\":\"%s\",\"status\":\"done\",\"programs\":%d,\"checks\":%d,\"disagreements\":%d,\"sim_runs\":%d,\"sim_wedged\":%d,\"sim_skipped\":%d,\"states\":%d,\"gen\":\"%s\"%s"
    key a.a_programs a.a_checks
    (List.length a.a_disagreements)
    a.a_sim_runs a.a_sim_wedged a.a_sim_skipped a.a_states
    (Runner.json_escape gen)
    (Runner.record_trailer ~cached:false ~attempts ~ms)

let disagreement_record ~key ~seed ~check ~detail ~ms =
  Printf.sprintf
    "{\"unit\":\"%s\",\"status\":\"disagreement\",\"seed\":%d,\"check\":\"%s\",\"detail\":\"%s\"%s"
    key seed (Runner.json_escape check) (Runner.json_escape detail)
    (Runner.record_trailer ~cached:false ~attempts:1 ~ms)

let poison_record ~key ~seed ~reason ~attempts ~ms =
  Printf.sprintf "{\"unit\":\"%s\",\"status\":\"poison\",\"seed\":%d,\"reason\":\"%s\"%s"
    key seed (Runner.json_escape reason)
    (Runner.record_trailer ~cached:false ~attempts ~ms)

let hang_reason = "wedged: heartbeat stalled past the hang budget"

(* --- hang reproduction probe -------------------------------------------------- *)

(* Does [prog] wedge the oracle?  Fork it with a timeout: a child that
   neither completes nor exits cleanly within the hang budget is killed
   and counted as hanging.  Used as the ddmin predicate for organically
   poisoned seeds (injected wedge seeds use the pure [wedge_fires] rule
   instead — no forking, full shrink budget). *)
let hangs_in_fork ~oracle ~hang_timeout_s prog =
  let probe = probe_oracle oracle in
  let c =
    Runner.fork_watched (fun () ->
        Runner.redirect_stderr "/dev/null";
        ignore (Fuzz.check_prog probe prog : Fuzz.seed_report);
        Unix._exit 0)
  in
  let deadline = Unix.gettimeofday () +. hang_timeout_s in
  (* The child never writes, so a readable exit channel is its EOF. *)
  let rec wait () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      (try Unix.kill c.Runner.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Runner.reap c : Unix.process_status);
      true
    end
    else
      match Unix.select [ c.Runner.fd ] [] [] left with
      | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> wait ()
      | _ -> Runner.reap c <> Unix.WEXITED 0
  in
  wait ()

(* --- the supervisor ----------------------------------------------------------- *)

type running = {
  r_u : ustate;
  r_child : Runner.child;
  r_started : float;
  r_result : string;
  r_stderr : string;
  r_slot : int;  (* its heartbeat slot *)
  mutable r_term_sent : bool;
  mutable r_hang_killed : bool;
}

(* One stats-socket client. *)
type conn = {
  n_fd : Unix.file_descr;
  n_dec : Wire.decoder;
  n_out : Buffer.t;
  mutable n_hello : bool;
  mutable n_closing : bool;
  mutable n_dead : bool;
}

let heap_bytes () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words * (Sys.word_size / 8)

let run cfg ~lo ~hi =
  if lo > hi then invalid_arg "Fleet.run: empty seed range";
  if cfg.shards < 1 then invalid_arg "Fleet.run: shards must be >= 1";
  if cfg.unit_seeds < 1 then invalid_arg "Fleet.run: unit_seeds must be >= 1";
  if cfg.retries < 1 then invalid_arg "Fleet.run: retries must be >= 1";
  let t0 = Unix.gettimeofday () in
  let fp = fingerprint cfg ~lo ~hi in
  (* Cumulative campaign counters; a resume folds the prior runs in. *)
  let units_total = ref 0 in
  let units_done = ref 0 in
  let units_requeued = ref 0 in
  let units_split = ref 0 in
  let g_programs = ref 0 in
  let g_checks = ref 0 in
  let g_disagreements = ref 0 in
  let g_sim_runs = ref 0 in
  let g_sim_wedged = ref 0 in
  let g_sim_skipped = ref 0 in
  let g_states = ref 0 in
  let prior_poison = ref [] in
  let poisons = ref [] in
  let ready : ustate Queue.t = Queue.create () in
  let delayed : ustate list ref = ref [] in
  let running : running list ref = ref [] in
  (* Resume (restores the pending frontiers) or a fresh unit plan. *)
  (match cfg.resume with
  | None ->
      let plan = units_of_range ~lo ~hi ~unit_seeds:cfg.unit_seeds in
      units_total := List.length plan;
      List.iter
        (fun (a, b) ->
          Queue.add
            {
              u_lo = a;
              u_hi = b;
              u_frontier = a;
              u_acc = acc_zero;
              u_attempts = 0;
              u_eligible_at = 0.;
            }
            ready)
        plan
  | Some path ->
      let ck, recovered = load_ckpt path in
      if not (String.equal ck.k_fingerprint fp) then
        raise
          (Resume_rejected
             "checkpoint was taken over a different campaign (fingerprints \
              differ)");
      units_total := ck.k_units_total;
      units_done := ck.k_units_done;
      units_requeued := ck.k_units_requeued;
      units_split := ck.k_units_split;
      g_programs := ck.k_programs;
      g_checks := ck.k_checks;
      g_disagreements := ck.k_disagreements;
      g_sim_runs := ck.k_sim_runs;
      g_sim_wedged := ck.k_sim_wedged;
      g_sim_skipped := ck.k_sim_skipped;
      g_states := ck.k_states;
      prior_poison := ck.k_poison;
      List.iter
        (fun (a, b, frontier, attempts, acc) ->
          Queue.add
            {
              u_lo = a;
              u_hi = b;
              u_frontier = frontier;
              u_acc = acc;
              u_attempts = attempts;
              u_eligible_at = 0.;
            }
            ready)
        (List.sort compare ck.k_pending);
      cfg.log
        (Printf.sprintf
           "resuming fleet: %d unit(s) pending, %d/%d seed(s) already \
            checked%s"
           (Queue.length ready) !g_programs (hi - lo + 1)
           (if recovered then
              " (recovered from the last-good .prev generation)"
            else "")));
  let run_base_programs = !g_programs in
  (* Output stream: append mode, so an interrupted run's records plus
     its resume's records concatenate into the full campaign. *)
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
  (* Scratch area for result and stderr files. *)
  let scratch =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "weakord-fleet-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let beats = beats_create ~dir:scratch ~slots:(max 1 cfg.shards) in
  (* Stats socket (optional). *)
  let listen_fd =
    match cfg.stats_socket with
    | None -> None
    | Some path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 16;
           Unix.set_nonblock fd
         with Unix.Unix_error (e, _, _) ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           invalid_arg
             (Printf.sprintf "Fleet.run: cannot bind stats socket %s: %s" path
                (Unix.error_message e)));
        Some fd
  in
  let conns : conn list ref = ref [] in
  (* Signals: first SIGTERM/SIGINT flips the drain flag and wakes the
     loop; EPIPE from a vanished stats client must be an error code, not
     a signal. *)
  let drain = ref false in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let wake = Runner.wake_on_drain drain in
  let restore_signals () =
    Sys.set_signal Sys.sigpipe old_pipe;
    Runner.restore wake
  in
  let budget =
    Budget.create ?deadline_s:cfg.deadline_s ?mem_bytes:cfg.mem_budget ()
  in
  (* Live shards for STATS.  The mean is weighted by the time each level
     was held, so it does not depend on how often the loop wakes. *)
  let shards_max = ref 0 in
  let shards_area = ref 0. in
  let shards_level = ref 0 and shards_since = ref t0 in
  let account_shards now =
    shards_area :=
      !shards_area +. (float_of_int !shards_level *. (now -. !shards_since));
    shards_since := now;
    shards_level := List.length !running;
    shards_max := max !shards_max !shards_level
  in
  let pending_units () =
    List.of_seq (Queue.to_seq ready)
    @ !delayed
    @ List.map (fun r -> r.r_u) !running
  in
  (* A state change sets [ckpt_dirty]; the loop writes at most every
     0.25 s and wakes for a pending write. *)
  let last_ckpt = ref 0. in
  let ckpt_dirty = ref false in
  let save_ckpt ~force () =
    match cfg.checkpoint with
    | None -> ()
    | Some path ->
        let now = Unix.gettimeofday () in
        if force || (!ckpt_dirty && now -. !last_ckpt > 0.25) then begin
          last_ckpt := now;
          ckpt_dirty := false;
          write_ckpt path
            {
              k_fingerprint = fp;
              k_pending =
                List.map
                  (fun u -> (u.u_lo, u.u_hi, u.u_frontier, u.u_attempts, u.u_acc))
                  (pending_units ());
              k_units_total = !units_total;
              k_units_done = !units_done;
              k_units_requeued = !units_requeued;
              k_units_split = !units_split;
              k_programs = !g_programs;
              k_checks = !g_checks;
              k_disagreements = !g_disagreements;
              k_sim_runs = !g_sim_runs;
              k_sim_wedged = !g_sim_wedged;
              k_sim_skipped = !g_sim_skipped;
              k_states = !g_states;
              k_poison =
                !prior_poison
                @ List.map (fun p -> (p.p_seed, p.p_reason, p.p_attempts)) !poisons;
            }
        end
  in
  let gen = Litmus_gen.config_args cfg.oracle.Fuzz.config in
  (* Global counters update at merge time — exactly once per seed across
     the campaign (failed attempts leave no result file; the oracle is
     deterministic, so a retry recomputes identical tallies). *)
  let merge u (a : acc) next =
    g_programs := !g_programs + a.a_programs;
    g_checks := !g_checks + a.a_checks;
    g_disagreements := !g_disagreements + List.length a.a_disagreements;
    g_sim_runs := !g_sim_runs + a.a_sim_runs;
    g_sim_wedged := !g_sim_wedged + a.a_sim_wedged;
    g_sim_skipped := !g_sim_skipped + a.a_sim_skipped;
    g_states := !g_states + a.a_states;
    u.u_acc <- acc_union u.u_acc a;
    u.u_frontier <- next
  in
  (* Dossier for an oracle disagreement: minimize against the same
     failing relation, then write the standard fuzz quarantine files. *)
  let disagreement_dossier ~seed ~check ~detail =
    let oracle = cfg.oracle in
    match oracle.Fuzz.quarantine with
    | None -> None
    | Some _ ->
        let prog = Litmus_gen.generate ~config:oracle.Fuzz.config seed in
        let minimal =
          if not oracle.Fuzz.shrink then None
          else
            match Shrink.ddmin ~pred:(Fuzz.still_fails oracle ~check) prog with
            | m, _ -> Some m
            | exception Invalid_argument _ -> None
        in
        Fuzz.quarantine_seed ?minimal oracle ~seed ~prog ~check ~detail
  in
  (* Dossier for a poison (hanging) seed: the shrink predicate is the
     pure wedge rule for injected seeds, a forked timeout probe for
     organic hangs (bounded — every hanging candidate costs a whole
     hang budget). *)
  let poison_dossier seed ~reason =
    let oracle = cfg.oracle in
    match oracle.Fuzz.quarantine with
    | None -> None
    | Some _ ->
        let prog = Litmus_gen.generate ~config:oracle.Fuzz.config seed in
        let minimal =
          if not oracle.Fuzz.shrink then None
          else
            let injected = List.mem seed cfg.wedge_seeds in
            let pred =
              if injected then fun p ->
                wedge_fires ~wedge_seeds:cfg.wedge_seeds ~seed p
              else
                hangs_in_fork ~oracle ~hang_timeout_s:cfg.hang_timeout_s
            in
            let max_tests = if injected then 2000 else 40 in
            match Shrink.ddmin ~max_tests ~pred prog with
            | m, _ -> Some m
            | exception Invalid_argument _ -> None
        in
        Fuzz.quarantine_seed ?minimal oracle ~seed ~prog ~check:"fleet-hang"
          ~detail:reason
  in
  let finalize u ~ms =
    incr units_done;
    let key = ukey u in
    List.iter
      (fun (seed, check, detail) ->
        let q = disagreement_dossier ~seed ~check ~detail in
        cfg.log
          (Printf.sprintf "DISAGREEMENT seed %d [%s]: %s%s" seed check detail
             (match q with
             | Some p -> " (quarantined: " ^ p ^ ")"
             | None -> ""));
        emit (disagreement_record ~key ~seed ~check ~detail ~ms))
      (List.sort compare u.u_acc.a_disagreements);
    emit (unit_record ~key ~gen u.u_acc ~attempts:(u.u_attempts + 1) ~ms);
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "unit %s done: %d program(s), %d check(s)" key
           u.u_acc.a_programs u.u_acc.a_checks)
  in
  let poison_unit u ~reason ~ms =
    let seed = u.u_lo in
    let report = poison_dossier seed ~reason in
    let p =
      {
        p_seed = seed;
        p_reason = reason;
        p_attempts = u.u_attempts;
        p_report = report;
      }
    in
    poisons := !poisons @ [ p ];
    cfg.log
      (Printf.sprintf "POISON seed %d after %d attempt(s): %s%s" seed
         u.u_attempts reason
         (match report with
         | Some r -> " (dossier: " ^ r ^ ")"
         | None -> ""));
    emit (poison_record ~key:(ukey u) ~seed ~reason ~attempts:u.u_attempts ~ms)
  in
  let backoff_of u =
    float_of_int
      (Batch.backoff_delay_ms ~base:cfg.backoff_ms ~attempt:u.u_attempts
         ~job_id:u.u_lo)
    /. 1000.
  in
  let requeue u ~reason now =
    incr units_requeued;
    u.u_eligible_at <- now +. backoff_of u;
    delayed := !delayed @ [ u ];
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "retrying unit %s (attempt %d/%d: %s)" (ukey u)
           (u.u_attempts + 1) cfg.retries reason)
  in
  (* Hang bisection.  The suspect seed (from the stale heartbeat) is cut
     out into its own single-seed unit carrying the hang strike; seeds
     before it keep the unit's merged progress, seeds after become fresh
     work.  [suspect_attempts] is the strike count the suspect inherits:
     hang strikes accumulate, a crash-exhausted split grants a fresh
     budget. *)
  let bisect r ~suspect_attempts now =
    let u = r.r_u in
    let suspect =
      match beat_seed beats r.r_slot with
      | s when s >= u.u_frontier && s <= u.u_hi -> s
      | _ -> u.u_frontier
    in
    incr units_split;
    cfg.log
      (Printf.sprintf
         "HANG unit %s: shard wedged on seed %d (heartbeat stale past %.1fs); \
          bisecting"
         (ukey u) suspect cfg.hang_timeout_s);
    if suspect > u.u_lo then begin
      let left =
        {
          u_lo = u.u_lo;
          u_hi = suspect - 1;
          u_frontier = u.u_frontier;
          u_acc = u.u_acc;
          u_attempts = 0;
          u_eligible_at = 0.;
        }
      in
      incr units_total;
      if left.u_frontier > left.u_hi then
        finalize left ~ms:((now -. r.r_started) *. 1000.)
      else Queue.add left ready
    end;
    if suspect < u.u_hi then begin
      incr units_total;
      Queue.add
        {
          u_lo = suspect + 1;
          u_hi = u.u_hi;
          u_frontier = suspect + 1;
          u_acc = acc_zero;
          u_attempts = 0;
          u_eligible_at = 0.;
        }
        ready
    end;
    let su =
      {
        u_lo = suspect;
        u_hi = suspect;
        u_frontier = suspect;
        u_acc = acc_zero;
        u_attempts = suspect_attempts;
        u_eligible_at = 0.;
      }
    in
    incr units_total;
    if su.u_attempts >= cfg.retries then
      poison_unit su ~reason:hang_reason ~ms:((now -. r.r_started) *. 1000.)
    else begin
      su.u_eligible_at <- now +. backoff_of su;
      delayed := !delayed @ [ su ]
    end
  in
  let attempt_failed r ~reason now =
    let u = r.r_u in
    u.u_attempts <- u.u_attempts + 1;
    if u.u_attempts < cfg.retries then requeue u ~reason now
    else if u.u_lo = u.u_hi then
      poison_unit u ~reason ~ms:((now -. r.r_started) *. 1000.)
    else
      (* Retries exhausted without a hang verdict: isolate the seed the
         shard last heartbeat on, granting the suspect a fresh retry
         budget (the deaths may have been transient). *)
      bisect r ~suspect_attempts:0 now
  in
  let handle_exit r status now =
    let u = r.r_u in
    let ms = (now -. r.r_started) *. 1000. in
    match status with
    | Unix.WEXITED 0 -> (
        match read_unit_result r.r_result with
        | Some (a, next) when next > u.u_hi ->
            merge u a next;
            finalize u ~ms
        | Some _ ->
            attempt_failed r ~reason:"shard exited 0 before finishing its unit"
              now
        | None ->
            attempt_failed r
              ~reason:"shard exited 0 but left no valid result file" now)
    | Unix.WEXITED 9 ->
        (* Drained at a seed boundary: merge the partial frontier and
           keep the unit pending — it lands in the checkpoint. *)
        (match read_unit_result r.r_result with
        | Some (a, next) -> merge u a next
        | None -> ());
        if cfg.verbose then
          cfg.log
            (Printf.sprintf "unit %s drained at seed %d" (ukey u) u.u_frontier);
        if u.u_frontier > u.u_hi then finalize u ~ms else Queue.add u ready
    | Unix.WEXITED n ->
        attempt_failed r ~reason:(Printf.sprintf "shard exited %d" n) now
    | Unix.WSIGNALED _ when r.r_hang_killed ->
        bisect r ~suspect_attempts:(u.u_attempts + 1) now
    | Unix.WSIGNALED s ->
        attempt_failed r
          ~reason:("shard killed by " ^ Runner.signal_name s)
          now
    | Unix.WSTOPPED _ ->
        (try Unix.kill r.r_child.Runner.pid Sys.sigkill
         with Unix.Unix_error _ -> ());
        attempt_failed r ~reason:"shard stopped unexpectedly" now
  in
  let spawn u =
    let key = ukey u in
    let path ext = Filename.concat scratch (Printf.sprintf "u%s.%s" key ext) in
    let rp = path "result" and sp = path "stderr" in
    (try Sys.remove rp with Sys_error _ -> ());
    let oracle = cfg.oracle and wedge_seeds = cfg.wedge_seeds in
    let frontier = u.u_frontier and uhi = u.u_hi in
    (* At most [cfg.shards] run, so a slot is always free. *)
    let slot =
      let rec free i =
        if List.exists (fun r -> r.r_slot = i) !running then free (i + 1) else i
      in
      free 0
    in
    (* No seed yet; the hang budget runs from the fork. *)
    beat beats slot (-1);
    flush out_ch;
    let child =
      Runner.fork_watched
        (shard_body ~oracle ~wedge_seeds ~result:rp ~stderr:sp ~frontier
           ~hi:uhi ~key ~beat:(beat beats slot))
    in
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "shard %d started unit %s at seed %d (attempt %d/%d)"
           child.Runner.pid key frontier (u.u_attempts + 1) cfg.retries);
    running :=
      {
        r_u = u;
        r_child = child;
        r_started = Unix.gettimeofday ();
        r_result = rp;
        r_stderr = sp;
        r_slot = slot;
        r_term_sent = false;
        r_hang_killed = false;
      }
      :: !running
  in
  (* --- stats socket ----------------------------------------------------------- *)
  let stats_json () =
    let now = Unix.gettimeofday () in
    let wall = now -. t0 in
    account_shards now;
    Printf.sprintf
      "{\"shards\":%d,\"shards_max\":%d,\"shards_mean\":%.1f,\"queue_depth\":%d,\"units_total\":%d,\"units_done\":%d,\"units_pending\":%d,\"units_requeued\":%d,\"units_split\":%d,\"poison\":%d,\"disagreements\":%d,\"seeds_done\":%d,\"seeds_total\":%d,\"seeds_per_sec\":%.1f,\"states_total\":%d,\"uptime_s\":%.1f,\"draining\":%b}"
      (List.length !running)
      !shards_max
      (if wall > 0. then !shards_area /. wall else 0.)
      (Queue.length ready + List.length !delayed)
      !units_total !units_done
      (List.length (pending_units ()))
      !units_requeued !units_split
      (List.length !prior_poison + List.length !poisons)
      !g_disagreements !g_programs
      (hi - lo + 1)
      (if wall > 0. then
         float_of_int (!g_programs - run_base_programs) /. wall
       else 0.)
      !g_states wall !drain
  in
  let send c s = Buffer.add_string c.n_out (Wire.frame s) in
  let close_conn c =
    if not c.n_dead then begin
      c.n_dead <- true;
      try Unix.close c.n_fd with Unix.Unix_error _ -> ()
    end
  in
  let handle_req c = function
    | Wire.Hello v ->
        if String.equal v Wire.greeting then begin
          c.n_hello <- true;
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
    | _ when not c.n_hello -> send c (Wire.err Wire.e_hello "say HELLO first")
    | Wire.Stats -> send c (Wire.ok (stats_json ()))
    | Wire.Ping -> send c (Wire.ok "pong")
    | Wire.Drain ->
        drain := true;
        send c
          (Wire.ok
             (Printf.sprintf "draining pending=%d running=%d"
                (Queue.length ready + List.length !delayed)
                (List.length !running)))
    | Wire.Bye ->
        send c (Wire.ok "bye");
        c.n_closing <- true
    | Wire.Submit _ | Wire.Status _ | Wire.Result _ | Wire.Cancel _ ->
        send c
          (Wire.err Wire.e_unknown
             "fleet stats endpoint serves STATS, PING, DRAIN and BYE")
  in
  let read_conn c =
    match
      let buf = Bytes.create 4096 in
      let n = Unix.read c.n_fd buf 0 4096 in
      if n = 0 then `Eof else `Data (Bytes.sub_string buf 0 n)
    with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn c
    | `Eof -> close_conn c
    | `Data data ->
        Wire.feed c.n_dec data;
        let rec pump () =
          match Wire.next c.n_dec with
          | Ok None -> ()
          | Ok (Some payload) ->
              (match Wire.parse_request payload with
              | Ok req -> handle_req c req
              | Error (code, msg) -> send c (Wire.err code msg));
              if not c.n_closing then pump ()
          | Error e ->
              send c (Wire.err Wire.e_bad ("framing: " ^ e));
              c.n_closing <- true
        in
        pump ()
  in
  let write_conn c =
    let s = Buffer.contents c.n_out in
    if String.length s > 0 then (
      match Unix.write_substring c.n_fd s 0 (String.length s) with
      | n ->
          Buffer.clear c.n_out;
          if n < String.length s then
            Buffer.add_substring c.n_out s n (String.length s - n)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> close_conn c);
    if c.n_closing && (not c.n_dead) && Buffer.length c.n_out = 0 then
      close_conn c
  in
  let accept_conns lfd =
    let rec go () =
      match Unix.accept lfd with
      | fd, _ ->
          Unix.set_nonblock fd;
          conns :=
            {
              n_fd = fd;
              n_dec = Wire.decoder ();
              n_out = Buffer.create 256;
              n_hello = false;
              n_closing = false;
              n_dead = false;
            }
            :: !conns;
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (* One wait serves the stats socket, the shards' exit channels and
     the drain self-pipe.  It sleeps until one of them speaks or the next
     deadline falls due: a backoff expiry, a heartbeat conviction, the
     campaign deadline or a pending checkpoint write. *)
  let next_deadline () =
    let t =
      List.fold_left
        (fun t r ->
          if r.r_hang_killed then t
          else Float.min t (beat_time beats r.r_slot +. cfg.hang_timeout_s))
        infinity !running
    in
    let t = List.fold_left (fun t u -> Float.min t u.u_eligible_at) t !delayed in
    let t =
      match Budget.deadline_s budget with
      | Some left when not !drain -> Float.min t (Unix.gettimeofday () +. left)
      | _ -> t
    in
    if !ckpt_dirty && cfg.checkpoint <> None then
      Float.min t (!last_ckpt +. 0.25)
    else t
  in
  let wait_and_service () =
    let live = List.filter (fun c -> not c.n_dead) !conns in
    let socket_fds =
      match listen_fd with
      | None -> []
      | Some lfd -> lfd :: List.map (fun c -> c.n_fd) live
    in
    let wfds =
      List.filter_map
        (fun c -> if Buffer.length c.n_out > 0 then Some c.n_fd else None)
        live
    in
    let rs, ws =
      Runner.sleep_until wake (next_deadline ())
        (socket_fds @ List.map (fun r -> r.r_child.Runner.fd) !running)
        wfds
    in
    let now = Unix.gettimeofday () in
    running :=
      List.filter
        (fun r ->
          (not (List.mem r.r_child.Runner.fd rs))
          ||
          match Runner.read_child r.r_child with
          | None -> true
          | Some status ->
              ckpt_dirty := true;
              handle_exit r status now;
              false)
        !running;
    (match listen_fd with
    | Some lfd when List.mem lfd rs -> accept_conns lfd
    | _ -> ());
    List.iter
      (fun c -> if (not c.n_dead) && List.mem c.n_fd rs then read_conn c)
      live;
    List.iter
      (fun c ->
        if (not c.n_dead) && (List.mem c.n_fd ws || Buffer.length c.n_out > 0)
        then write_conn c)
      live;
    conns := List.filter (fun c -> not c.n_dead) !conns
  in
  (* --- the event loop --------------------------------------------------------- *)
  let drain_announced = ref false in
  let finally () =
    restore_signals ();
    List.iter close_conn !conns;
    (match listen_fd with
    | Some fd -> (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match cfg.stats_socket with
        | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
        | None -> ())
    | None -> ());
    close_out_ch ();
    (match Sys.readdir scratch with
    | files ->
        Array.iter
          (fun f ->
            try Sys.remove (Filename.concat scratch f) with Sys_error _ -> ())
          files;
        (try Unix.rmdir scratch with Unix.Unix_error _ -> ())
    | exception Sys_error _ -> ())
  in
  let continue () =
    !running <> []
    || ((not !drain) && ((not (Queue.is_empty ready)) || !delayed <> []))
  in
  (try
     while continue () do
       let now = Unix.gettimeofday () in
       (* Budget exhaustion is a self-inflicted drain. *)
       if not !drain then begin
         if Budget.over_deadline budget then begin
           drain := true;
           cfg.log "fleet deadline reached; draining"
         end
         else if Budget.over_memory budget ~bytes:(heap_bytes ()) then begin
           drain := true;
           cfg.log "fleet memory budget reached; draining"
         end
       end;
       (* Drain: forward SIGTERM once to every in-flight shard; shards
          stop at the next seed boundary.  The watchdog below stays
          armed — a wedged shard ignores SIGTERM and only SIGKILL (with
          its deterministic bisection) resolves it. *)
       if !drain then begin
         if not !drain_announced then begin
           drain_announced := true;
           cfg.log
             (Printf.sprintf "draining: %d shard(s) in flight, %d unit(s) queued"
                (List.length !running)
                (Queue.length ready + List.length !delayed))
         end;
         List.iter
           (fun r ->
             if not r.r_term_sent then begin
               r.r_term_sent <- true;
               try Unix.kill r.r_child.Runner.pid Sys.sigterm
               with Unix.Unix_error _ -> ()
             end)
           !running
       end;
       (* Watchdog: no heartbeat within the hang budget convicts the
          shard's current seed. *)
       List.iter
         (fun r ->
           if
             (not r.r_hang_killed)
             && now -. beat_time beats r.r_slot > cfg.hang_timeout_s
           then begin
             r.r_hang_killed <- true;
             try Unix.kill r.r_child.Runner.pid Sys.sigkill
             with Unix.Unix_error _ -> ()
           end)
         !running;
       (* Promote delayed units whose backoff expired. *)
       let due, later =
         List.partition (fun u -> u.u_eligible_at <= now) !delayed
       in
       delayed := later;
       List.iter (fun u -> Queue.add u ready) due;
       (* Dispatch. *)
       while
         (not !drain)
         && List.length !running < cfg.shards
         && not (Queue.is_empty ready)
       do
         ckpt_dirty := true;
         let u = Queue.pop ready in
         if u.u_frontier > u.u_hi then finalize u ~ms:0. else spawn u
       done;
       account_shards (Unix.gettimeofday ());
       save_ckpt ~force:false ();
       if continue () then wait_and_service ()
     done;
     save_ckpt ~force:true ()
   with e ->
     (try save_ckpt ~force:true () with _ -> ());
     finally ();
     raise e);
  finally ();
  let pending = Queue.length ready + List.length !delayed in
  {
    f_units_total = !units_total;
    f_units_done = !units_done;
    f_units_requeued = !units_requeued;
    f_units_split = !units_split;
    f_pending = pending;
    f_programs = !g_programs;
    f_checks = !g_checks;
    f_disagreements = !g_disagreements;
    f_sim_runs = !g_sim_runs;
    f_sim_wedged = !g_sim_wedged;
    f_sim_skipped = !g_sim_skipped;
    f_states = !g_states;
    f_poison = !poisons;
    f_poison_total = List.length !prior_poison + List.length !poisons;
    f_wall_s = Unix.gettimeofday () -. t0;
    f_suspended = !drain && pending > 0;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "fleet: %d unit(s): %d done, %d pending, %d requeue(s), %d hang \
     bisection(s)@\n\
     corpus: %d program(s), %d oracle check(s), %d disagreement(s)@\n\
     sim: %d run(s), %d legal wedge(s) on blocking programs, %d skipped@\n\
     poison: %d seed(s) quarantined%s@\n\
     %d state(s) expanded, wall %.1fs, %.1f seed(s)/s%s"
    s.f_units_total s.f_units_done s.f_pending s.f_units_requeued
    s.f_units_split s.f_programs s.f_checks s.f_disagreements s.f_sim_runs
    s.f_sim_wedged s.f_sim_skipped s.f_poison_total
    (match s.f_poison with
    | [] -> ""
    | ps ->
        Printf.sprintf " (this run: %s)"
          (String.concat ", " (List.map (fun p -> string_of_int p.p_seed) ps)))
    s.f_states s.f_wall_s
    (if s.f_wall_s > 0. then float_of_int s.f_programs /. s.f_wall_s else 0.)
    (if s.f_suspended then " — SUSPENDED (resume with --resume)" else "")
