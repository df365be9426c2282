(* The sharded fuzz fleet: the three-way differential oracle in [Fuzz]
   over [Supervise.run_pool].

   A shard takes a unit as a request [(frontier, hi, key)], streams the
   unit's seeds through [Fuzz.check_prog], beats the seed it is about
   to check into its heartbeat slot, and answers with its accumulated
   tallies as one CRC-framed reply.  The failure matrix:

     reply with next > hi              -> unit done (emit its records);
                                          the shard waits for more
     reply with next <= hi, exit 9     -> drained at a seed boundary:
                                          merge the partial, requeue
     no heartbeat for hang_timeout_s   -> SIGKILL (the pool's hang rule)
                                          + bisect: seeds before the
                                          suspect keep the progress,
                                          seeds after become fresh work,
                                          the suspect retries alone
     any other death, corrupt reply    -> failed attempt: requeue whole
                                          (a transient kill must not
                                          split units, or resumed and
                                          uninterrupted campaigns would
                                          emit different records)
     suspect attempts exhausted        -> poison: quarantine dossier
                                          with a ddmin-minimized
                                          reproducer; campaign continues

   The pool, the retry queue, the checkpoint and the stats socket's
   connection server ([Wire]) are shared with batch and the daemon;
   bisection, dossiers and the stats are fleet policy.  Records are
   emitted only when a unit finalizes, so drained partials never
   double-emit. *)

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
   across the campaign — a failed attempt's tallies are dropped, and
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
}

let ukey u = Printf.sprintf "%d..%d" u.u_lo u.u_hi

(* --- the shard worker --------------------------------------------------------- *)

let unit_kind = "weakord.fleet.unit"

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

(* Runs in the shard, once per unit.  Heartbeat first, then check: the
   parent reads a stale heartbeat as "wedged on exactly this seed".  A
   wedge seed spins forever and ignores SIGTERM — a faithful model of a
   real engine hang, which only the hang rule's SIGKILL resolves. *)
let shard_unit ~oracle ~wedge_seeds ~stderr ~beat ~cancelled ~reply request =
  let frontier, hi, key = (Marshal.from_string request 0 : int * int * string) in
  Runner.redirect_stderr (stderr key);
  let probe = probe_oracle oracle in
  let acc = ref acc_zero in
  let ship next = reply (Marshal.to_string (!acc, next) []) in
  let seed = ref frontier in
  while !seed <= hi do
    if cancelled () then begin
      ship !seed;
      Unix._exit 9
    end;
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
  ship (hi + 1)

let unit_of_payload payload =
  match (Marshal.from_string payload 0 : acc * int) with
  | v -> Some v
  | exception (Failure _ | Invalid_argument _) -> None

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

(* A unit in flight, with the partial tallies a drained shard replied
   with just before it exits 9. *)
type running = { r_u : ustate; mutable r_partial : (acc * int) option }

let heap_bytes () =
  let s = Gc.quick_stat () in
  s.Gc.heap_words * (Sys.word_size / 8)

let fresh_unit ?(acc = acc_zero) ?(attempts = 0) ?frontier lo hi =
  {
    u_lo = lo;
    u_hi = hi;
    u_frontier = Option.value frontier ~default:lo;
    u_acc = acc;
    u_attempts = attempts;
  }

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
  let poisons = ref [] in  (* newest first *)
  (* Resume (restores the pending frontiers) or a fresh unit plan. *)
  let plan =
    match cfg.resume with
    | None ->
        let plan = units_of_range ~lo ~hi ~unit_seeds:cfg.unit_seeds in
        units_total := List.length plan;
        List.map (fun (a, b) -> fresh_unit a b) plan
    | Some path ->
        let (ck : ckpt), recovered =
          Supervise.load_ckpt ~kind:ckpt_kind
            ~reject:(fun m -> Resume_rejected m)
            path
        in
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
        cfg.log
          (Printf.sprintf
             "resuming fleet: %d unit(s) pending, %d/%d seed(s) already \
              checked%s"
             (List.length ck.k_pending) !g_programs (hi - lo + 1)
             (if recovered then
                " (recovered from the last-good .prev generation)"
              else ""));
        List.map
          (fun (a, b, frontier, attempts, acc) ->
            fresh_unit ~acc ~attempts ~frontier a b)
          (List.sort compare ck.k_pending)
  in
  let run_base_programs = !g_programs in
  let srv =
    Option.map
      (fun path ->
        try Wire.listen path
        with Failure m -> invalid_arg ("Fleet.run: stats socket: " ^ m))
      cfg.stats_socket
  in
  let s = Supervise.open_session ~name:"fleet" ~stdout:true ~checkpoint:cfg.checkpoint cfg.out in
  let drain = s.Supervise.drain in
  let q = Supervise.queue plan in
  let budget =
    Budget.create ?deadline_s:cfg.deadline_s ?mem_bytes:cfg.mem_budget ()
  in
  let stderr_path key = Supervise.scratch_file s (Printf.sprintf "u%s.stderr" key) in
  let pool =
    Supervise.pool s ~size:cfg.shards ~hang_s:cfg.hang_timeout_s
      (fun ~slot ~siblings ~beat ->
        let w =
          Runner.fork_persistent ~kind:unit_kind
            ~close:(match srv with Some srv -> fst (Wire.fds srv) | None -> [])
            ~siblings
            (shard_unit ~oracle:cfg.oracle ~wedge_seeds:cfg.wedge_seeds
               ~stderr:stderr_path ~beat)
        in
        if cfg.verbose then
          cfg.log (Printf.sprintf "shard %d forked into slot %d" w.Runner.pid slot);
        w)
  in
  let running () =
    List.map (fun (b : running Supervise.busy) -> b.work.r_u) (Supervise.busy pool)
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
    shards_level := List.length (Supervise.busy pool);
    shards_max := max !shards_max !shards_level
  in
  let pending_units () = Supervise.to_list q @ running () in
  let write_ckpt path =
    let pending = pending_units () in
    Supervise.write_ckpt ~kind:ckpt_kind
      ~meta:
        (Printf.sprintf "%d pending unit(s), %d poison" (List.length pending)
           (List.length !prior_poison + List.length !poisons))
      path
      {
        k_fingerprint = fp;
        k_pending =
          List.map
            (fun u -> (u.u_lo, u.u_hi, u.u_frontier, u.u_attempts, u.u_acc))
            pending;
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
          @ List.rev_map (fun p -> (p.p_seed, p.p_reason, p.p_attempts)) !poisons;
      }
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
        Supervise.emit s (disagreement_record ~key ~seed ~check ~detail ~ms))
      (List.sort compare u.u_acc.a_disagreements);
    Supervise.emit s (unit_record ~key ~gen u.u_acc ~attempts:(u.u_attempts + 1) ~ms);
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
    poisons := p :: !poisons;
    cfg.log
      (Printf.sprintf "POISON seed %d after %d attempt(s): %s%s" seed
         u.u_attempts reason
         (match report with
         | Some r -> " (dossier: " ^ r ^ ")"
         | None -> ""));
    Supervise.emit s
      (poison_record ~key:(ukey u) ~seed ~reason ~attempts:u.u_attempts ~ms)
  in
  let backoff u now =
    Supervise.delay q u
      ~at:
        (now
        +. float_of_int
             (Supervise.backoff_delay_ms ~base:cfg.backoff_ms
                ~attempt:u.u_attempts ~job_id:u.u_lo)
           /. 1000.)
  in
  (* Hang bisection.  The suspect seed (from the stale heartbeat) is cut
     out into its own single-seed unit carrying the hang strike; seeds
     before it keep the unit's merged progress, seeds after become fresh
     work.  [suspect_attempts] is the strike count the suspect inherits:
     hang strikes accumulate, a crash-exhausted split grants a fresh
     budget. *)
  let bisect (b : running Supervise.busy) ~suspect_attempts now =
    let u = b.work.r_u in
    let ms = (now -. b.started) *. 1000. in
    let suspect =
      match Supervise.beat_unit pool b with
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
      let left = fresh_unit ~acc:u.u_acc ~frontier:u.u_frontier u.u_lo (suspect - 1) in
      incr units_total;
      if left.u_frontier > left.u_hi then finalize left ~ms
      else Supervise.push q left
    end;
    if suspect < u.u_hi then begin
      incr units_total;
      Supervise.push q (fresh_unit (suspect + 1) u.u_hi)
    end;
    let su = fresh_unit ~attempts:suspect_attempts suspect suspect in
    incr units_total;
    if su.u_attempts >= cfg.retries then poison_unit su ~reason:hang_reason ~ms
    else backoff su now
  in
  let attempt_failed (b : running Supervise.busy) ~reason now =
    let u = b.work.r_u in
    u.u_attempts <- u.u_attempts + 1;
    if u.u_attempts < cfg.retries then begin
      incr units_requeued;
      backoff u now;
      if cfg.verbose then
        cfg.log
          (Printf.sprintf "retrying unit %s (attempt %d/%d: %s)" (ukey u)
             (u.u_attempts + 1) cfg.retries reason)
    end
    else if u.u_lo = u.u_hi then
      poison_unit u ~reason ~ms:((now -. b.started) *. 1000.)
    else
      (* Retries exhausted without a hang verdict: isolate the seed the
         shard last heartbeat on, granting the suspect a fresh retry
         budget (the deaths may have been transient). *)
      bisect b ~suspect_attempts:0 now
  in
  (* A whole unit's reply frees the shard; a partial one comes only from
     a drained shard, which exits 9 next. *)
  let reply (b : running Supervise.busy) payload =
    let now = Unix.gettimeofday () in
    match unit_of_payload payload with
    | Some (a, next) when next > b.work.r_u.u_hi ->
        Supervise.touch s;
        merge b.work.r_u a next;
        finalize b.work.r_u ~ms:((now -. b.started) *. 1000.);
        Supervise.Idle
    | Some partial ->
        b.work.r_partial <- Some partial;
        Supervise.Busy
    | None ->
        Supervise.touch s;
        attempt_failed b ~reason:"shard reply does not unmarshal" now;
        Supervise.Kill
  in
  let lost (b : running Supervise.busy) status =
    let now = Unix.gettimeofday () in
    let u = b.work.r_u in
    Supervise.touch s;
    match status with
    | None -> attempt_failed b ~reason:"shard reply failed its CRC or kind" now
    | Some (Unix.WEXITED 9) ->
        (* Drained at a seed boundary: merge the partial frontier the
           shard replied with and keep the unit pending — it lands in
           the checkpoint. *)
        Option.iter (fun (a, next) -> merge u a next) b.work.r_partial;
        if cfg.verbose then
          cfg.log
            (Printf.sprintf "unit %s drained at seed %d" (ukey u) u.u_frontier);
        if u.u_frontier > u.u_hi then finalize u ~ms:((now -. b.started) *. 1000.)
        else Supervise.push q u
    | Some (Unix.WEXITED n) ->
        attempt_failed b ~reason:(Printf.sprintf "shard exited %d" n) now
    | Some (Unix.WSIGNALED _) when b.hung ->
        bisect b ~suspect_attempts:(u.u_attempts + 1) now
    | Some (Unix.WSIGNALED sg) ->
        attempt_failed b ~reason:("shard killed by " ^ Runner.signal_name sg) now
    | Some (Unix.WSTOPPED _) -> (* not requested (no WUNTRACED) *)
        attempt_failed b ~reason:"shard stopped unexpectedly" now
  in
  let spawn u =
    let key = ukey u in
    let b =
      Supervise.dispatch pool
        { r_u = u; r_partial = None }
        (Marshal.to_string (u.u_frontier, u.u_hi, key) [])
    in
    if cfg.verbose then
      cfg.log
        (Printf.sprintf "shard %d started unit %s at seed %d (attempt %d/%d)"
           (Supervise.pid b) key u.u_frontier (u.u_attempts + 1) cfg.retries)
  in
  (* --- stats socket ----------------------------------------------------------- *)
  let stats_json () =
    let now = Unix.gettimeofday () in
    let wall = now -. t0 in
    account_shards now;
    Printf.sprintf
      "{\"shards\":%d,\"shards_max\":%d,\"shards_mean\":%.1f,\"queue_depth\":%d,\"units_total\":%d,\"units_done\":%d,\"units_pending\":%d,\"units_requeued\":%d,\"units_split\":%d,\"poison\":%d,\"disagreements\":%d,\"seeds_done\":%d,\"seeds_total\":%d,\"seeds_per_sec\":%.1f,\"states_total\":%d,\"uptime_s\":%.1f,\"draining\":%b}"
      (List.length (Supervise.busy pool))
      !shards_max
      (if wall > 0. then !shards_area /. wall else 0.)
      (Supervise.queued q) !units_total !units_done
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
  let handle c = function
    | Wire.Stats -> Wire.send c (Wire.ok (stats_json ()))
    | Wire.Drain ->
        drain := true;
        Wire.send c
          (Wire.ok
             (Printf.sprintf "draining pending=%d running=%d" (Supervise.queued q)
                (List.length (Supervise.busy pool))))
    | _ ->
        Wire.send c
          (Wire.err Wire.e_unknown
             "fleet stats endpoint serves STATS, PING, DRAIN and BYE")
  in
  (* One wait serves the stats socket, the shards' exit channels and
     the drain self-pipe. *)
  Supervise.run_pool s write_ckpt pool q ~log:cfg.log ~nouns:("shard", "unit")
    ~check:(fun _ ->
      (* Budget exhaustion is a self-inflicted drain. *)
      if not !drain then
        if Budget.over_deadline budget then begin
          drain := true;
          cfg.log "fleet deadline reached; draining"
        end
        else if Budget.over_memory budget ~bytes:(heap_bytes ()) then begin
          drain := true;
          cfg.log "fleet memory budget reached; draining"
        end)
    ~deadline:(fun () ->
      match Budget.deadline_s budget with
      | Some left -> Unix.gettimeofday () +. left
      | None -> infinity)
    ~start:(fun u ->
      Supervise.touch s;
      if u.u_frontier > u.u_hi then finalize u ~ms:0. else spawn u)
    ~before_wait:(fun () ->
      account_shards (Unix.gettimeofday ());
      match srv with Some srv -> Wire.fds srv | None -> ([], []))
    ~after_wait:(fun rs ws ->
      Option.iter
        (fun srv -> Wire.service srv ~admit:(fun () -> Ok ()) ~handle rs ws)
        srv)
    ~finally:(fun () -> Option.iter Wire.shutdown srv)
    ~reply ~lost ();
  let pending = Supervise.queued q in
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
    f_poison = List.rev !poisons;
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
