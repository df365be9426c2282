(* The batch verification service's in-process pieces: the job-file
   parser, the CRC-validated verdict cache, the deterministic retry
   backoff, the worker's verdict computation, the exit channels, and
   small end-to-end runs of the batch, fleet and daemon supervisors (the
   last two forked, so the test can talk to their sockets).  This suite
   runs first (test/main.ml): OCaml 5 refuses [Unix.fork] once any
   domain has been spawned, and later suites spawn some.  The rest of the process-level
   machinery (kill -9 of a worker, drain/resume identity) is exercised
   by test/batch_chaos.sh and test/fleet_chaos.sh against the real
   binary. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let prog_of n = (Option.get (Litmus_classics.find n)).Litmus_classics.prog
let tmp_path suffix = Filename.temp_file "weakord_service" suffix

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- job files --------------------------------------------------------------- *)

let parse_ok ?default_machine s =
  match Job.parse_string ?default_machine s with
  | Ok jobs -> jobs
  | Error e -> Alcotest.failf "job file rejected: %s" e

let parse_err ?default_machine s =
  match Job.parse_string ?default_machine s with
  | Ok _ -> Alcotest.fail "job file unexpectedly accepted"
  | Error e -> e

let test_job_parse () =
  let jobs =
    parse_ok
      "# a comment\n\
       machine wbuf\n\
       test mp\n\
       file /some/path.litmus machine=ooo\n\
       seeds 3..5\n\
       seed 9 machine=def2 threads=2 no-await\n\
       wedge\n"
  in
  check_int "expanded count" 7 (List.length jobs);
  let ids = List.map (fun j -> j.Job.id) jobs in
  check "ids are positions" true (ids = [ 0; 1; 2; 3; 4; 5; 6 ]);
  let nth n = List.nth jobs n in
  check_string "default machine directive" "wbuf" (nth 0).Job.machine;
  check_string "per-line override" "ooo" (nth 1).Job.machine;
  check "seeds expand inclusively" true
    (match ((nth 2).Job.source, (nth 4).Job.source) with
    | Job.Seed { seed = 3; _ }, Job.Seed { seed = 5; _ } -> true
    | _ -> false);
  (match (nth 5).Job.source with
  | Job.Seed { seed = 9; config } ->
      check_int "genopt threads" 2 config.Litmus_gen.max_threads;
      check "genopt no-await" false config.Litmus_gen.allow_await;
      check_string "gen args reproduce the line" "--seed 9 --threads 2 --no-await"
        (Job.gen_args (nth 5).Job.source)
  | _ -> Alcotest.fail "seed job not parsed as Seed");
  check "wedge parsed" true ((nth 6).Job.source = Job.Wedge);
  check_string "wedge keeps directive machine" "wbuf" (nth 6).Job.machine

let test_job_parse_errors () =
  let located e = String.length e > 5 && String.sub e 0 5 = "line " in
  check "unknown machine is located" true
    (located (parse_err "test mp machine=nope\n"));
  check "unknown directive is located" true (located (parse_err "frob 3\n"));
  check "inverted seed range rejected" true (located (parse_err "seeds 5..3\n"));
  check "garbage seed rejected" true (located (parse_err "seed banana\n"));
  check "bad genopt rejected" true (located (parse_err "seed 1 threads=x\n"));
  check "default machine validated" true
    (Result.is_error (Job.parse_string ~default_machine:"nope" "test mp\n"))

let test_job_fingerprint () =
  let a = parse_ok "test mp\nseeds 0..3\n" in
  let b = parse_ok "test mp\nseeds 0..3\n" in
  let c = parse_ok "test mp\nseeds 0..4\n" in
  let d = parse_ok "test mp\nseeds 0..3 machine=wbuf\n" in
  check "same file, same fingerprint" true
    (Job.fingerprint a = Job.fingerprint b);
  check "longer range differs" true (Job.fingerprint a <> Job.fingerprint c);
  check "machine change differs" true (Job.fingerprint a <> Job.fingerprint d)

(* --- verdict cache ----------------------------------------------------------- *)

let sample_verdict =
  {
    Verdict_cache.v_outcomes = [ "r1_0=0 r2_0=1" ];
    v_appears_sc = true;
    v_obeys_model = true;
    v_allows_exists = Some false;
    v_violation = false;
    v_states = 42;
    v_complete = true;
    v_spilled_runs = 0;
  }

let test_cache_roundtrip () =
  let path = tmp_path ".wovc" in
  Sys.remove path;
  let key = Verdict_cache.key ~prog:(prog_of "mp") ~machine:"def2" ~model:"drf0" in
  let c = Verdict_cache.open_file path in
  check "cold miss" true (Verdict_cache.find c key = None);
  Verdict_cache.add c key sample_verdict;
  Verdict_cache.close c;
  let c2 = Verdict_cache.open_file path in
  (match Verdict_cache.find c2 key with
  | Some v ->
      check_int "states survive reload" 42 v.Verdict_cache.v_states;
      check "exists survives reload" true
        (v.Verdict_cache.v_allows_exists = Some false)
  | None -> Alcotest.fail "persisted verdict not found after reopen");
  let s = Verdict_cache.stats c2 in
  check_int "hit counted" 1 s.Verdict_cache.hits;
  check_int "miss not counted on hit path" 0 s.Verdict_cache.misses;
  check_int "nothing corrupt" 0 s.Verdict_cache.corrupt_skipped;
  Verdict_cache.close c2;
  Sys.remove path

(* The cache keys on canonical program text: the same program reached
   under a different name must share a slot, and a different machine or
   model must not. *)
let test_cache_key () =
  let mp = prog_of "mp" in
  let renamed =
    Prog.make ~name:"other_name" ~init:(Prog.init mp)
      ?exists:(Prog.exists mp) (Prog.threads mp)
  in
  let k prog machine model = Verdict_cache.key ~prog ~machine ~model in
  check "name does not split slots" true
    (k mp "def2" "drf0" = k renamed "def2" "drf0");
  check "machine splits slots" true (k mp "def2" "drf0" <> k mp "wbuf" "drf0");
  check "model splits slots" true (k mp "def2" "drf0" <> k mp "def2" "drf1")

(* A flipped byte inside one record must cost exactly that record — a
   recompute, never a wrong verdict and never the rest of the file. *)
let test_cache_corruption () =
  let path = tmp_path ".wovc" in
  Sys.remove path;
  let keys = List.init 5 (fun i -> Printf.sprintf "key-%d|def2|drf0|wovc1" i) in
  let c = Verdict_cache.open_file path in
  List.iteri
    (fun i k ->
      Verdict_cache.add c k
        { sample_verdict with Verdict_cache.v_states = 100 + i })
    keys;
  Verdict_cache.close c;
  (* Flip a byte in the middle of the third record's payload. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let target = "key-2|" in
  let idx =
    let rec find i =
      if String.sub data i (String.length target) = target then i
      else find (i + 1)
    in
    find 0
  in
  let b = Bytes.of_string data in
  let flip = idx + 40 in
  Bytes.set b flip (Char.chr (Char.code (Bytes.get b flip) lxor 0xff));
  Out_channel.with_open_bin path (fun ch ->
      Out_channel.output_bytes ch b);
  let c2 = Verdict_cache.open_file path in
  let s = Verdict_cache.stats c2 in
  check "corruption detected" true (s.Verdict_cache.corrupt_skipped >= 1);
  (* The corrupted record reads as a miss (forcing a recompute)... *)
  check "corrupt record is a miss" true
    (Verdict_cache.find c2 (List.nth keys 2) = None);
  (* ...while every other record survives with its own verdict. *)
  List.iteri
    (fun i k ->
      if i <> 2 then
        match Verdict_cache.find c2 k with
        | Some v -> check_int "intact record" (100 + i) v.Verdict_cache.v_states
        | None -> Alcotest.failf "record %d lost to a neighbor's corruption" i)
    keys;
  (* The recompute path re-adds and persists over the damage. *)
  Verdict_cache.add c2 (List.nth keys 2) sample_verdict;
  Verdict_cache.close c2;
  let c3 = Verdict_cache.open_file path in
  check "recomputed verdict persisted" true
    (Verdict_cache.find c3 (List.nth keys 2) <> None);
  Verdict_cache.close c3;
  Sys.remove path

(* A torn tail (partial last record, the crash-mid-append case) must be
   skipped without losing the intact prefix. *)
let test_cache_torn_tail () =
  let path = tmp_path ".wovc" in
  Sys.remove path;
  let c = Verdict_cache.open_file path in
  Verdict_cache.add c "whole|def2|drf0|wovc1" sample_verdict;
  Verdict_cache.close c;
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun ch ->
      Out_channel.output_string ch data;
      (* append a record cut off mid-payload *)
      let torn =
        Verdict_cache.frame "torn|def2|drf0|wovc1" sample_verdict
      in
      Out_channel.output_string ch
        (String.sub torn 0 (String.length torn - 7)));
  let c2 = Verdict_cache.open_file path in
  check "intact record survives torn tail" true
    (Verdict_cache.find c2 "whole|def2|drf0|wovc1" <> None);
  check "torn record is a miss" true
    (Verdict_cache.find c2 "torn|def2|drf0|wovc1" = None);
  check "torn tail counted corrupt" true
    ((Verdict_cache.stats c2).Verdict_cache.corrupt_skipped >= 1);
  Verdict_cache.close c2;
  Sys.remove path

(* --- retry backoff ----------------------------------------------------------- *)

let test_backoff () =
  let d ~attempt ~job_id = Supervise.backoff_delay_ms ~base:100 ~attempt ~job_id in
  check_int "deterministic" (d ~attempt:1 ~job_id:7) (d ~attempt:1 ~job_id:7);
  (* Exponential envelope: base * 2^(attempt-1) <= delay < that + base. *)
  List.iter
    (fun attempt ->
      let lo = 100 * (1 lsl (attempt - 1)) in
      let v = d ~attempt ~job_id:3 in
      check "within envelope" true (v >= lo && v < lo + 100))
    [ 1; 2; 3; 4 ];
  (* Jitter decorrelates jobs: not every job gets the same delay. *)
  let delays = List.init 16 (fun j -> d ~attempt:1 ~job_id:j) in
  check "jitter varies across jobs" true
    (List.exists (fun v -> v <> List.hd delays) delays);
  check_int "zero base is immediate" 0
    (Supervise.backoff_delay_ms ~base:0 ~attempt:3 ~job_id:1)

(* --- worker ------------------------------------------------------------------ *)

let test_worker_verdict () =
  let mp = prog_of "mp" in
  let machine = Option.get (Machines.find "def2") in
  match Worker.run ~model:Worker.Drf0 ~machine mp with
  | Error `Cancelled -> Alcotest.fail "uncancelled worker reported Cancelled"
  | Ok v ->
      (* mp races (it does not obey DRF0), so Definition 2 makes no
         promise: whatever the machine shows, it is not a violation. *)
      check "mp does not obey drf0" false v.Verdict_cache.v_obeys_model;
      check "racing program is never a violation" false
        v.Verdict_cache.v_violation;
      check "complete sweep" true v.Verdict_cache.v_complete;
      check "states counted" true (v.Verdict_cache.v_states > 0)

let test_worker_cancel () =
  let mp = prog_of "mp" in
  let machine = Option.get (Machines.find "def2") in
  match Worker.run ~cancel:(fun () -> true) ~model:Worker.Drf0 ~machine mp with
  | Error `Cancelled -> ()
  | Ok _ -> Alcotest.fail "cancel hook ignored"

let test_worker_obeying () =
  (* The synchronized message-pass obeys DRF0 and must appear SC on
     def2: the whole point of Definition 2. *)
  let p = prog_of "mp_sync" in
  let machine = Option.get (Machines.find "def2") in
  match Worker.run ~model:Worker.Drf0 ~machine p with
  | Error `Cancelled -> Alcotest.fail "unexpected cancel"
  | Ok v ->
      check "mp_sync obeys drf0" true v.Verdict_cache.v_obeys_model;
      check "appears SC" true v.Verdict_cache.v_appears_sc;
      check "no violation" false v.Verdict_cache.v_violation

(* --- wire protocol ------------------------------------------------------------ *)

let feed_all dec s =
  Wire.feed dec s;
  let rec drain acc =
    match Wire.next dec with
    | Ok (Some p) -> drain (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  drain []

let test_wire_roundtrip () =
  let dec = Wire.decoder () in
  let msgs = [ "HELLO weakord/1"; "SUBMIT test mp"; "OK ticket=7"; "" ] in
  let stream = String.concat "" (List.map Wire.frame msgs) in
  match feed_all dec stream with
  | Ok got -> Alcotest.(check (list string)) "all frames decode" msgs got
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_wire_incremental () =
  (* A frame split at every possible byte boundary still decodes. *)
  let payload = "RESULT 42 WAIT" in
  let s = Wire.frame payload in
  for cut = 1 to String.length s - 1 do
    let dec = Wire.decoder () in
    Wire.feed dec (String.sub s 0 cut);
    (match Wire.next dec with
    | Ok None -> ()
    | Ok (Some _) ->
        if cut < String.length s then
          Alcotest.failf "frame complete after %d bytes" cut
    | Error e -> Alcotest.failf "split at %d rejected: %s" cut e);
    Wire.feed dec (String.sub s cut (String.length s - cut));
    match Wire.next dec with
    | Ok (Some p) -> check_string "reassembled" payload p
    | Ok None -> Alcotest.failf "frame incomplete after split at %d" cut
    | Error e -> Alcotest.failf "reassembly at %d failed: %s" cut e
  done

let test_wire_latching () =
  (* After a framing error the decoder must stay dead: a byte stream
     that lost sync cannot be trusted again. *)
  let dec = Wire.decoder () in
  Wire.feed dec "nonsense without a length\n";
  (match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  Wire.feed dec (Wire.frame "PING");
  match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered after a framing error"

let test_wire_oversize () =
  let dec = Wire.decoder () in
  Wire.feed dec (Printf.sprintf "%d " (Wire.max_frame + 1));
  match Wire.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize length accepted"

let test_wire_parse () =
  let ok s =
    match Wire.parse_request s with
    | Ok r -> r
    | Error (c, m) -> Alcotest.failf "%S rejected: %d %s" s c m
  in
  let err s =
    match Wire.parse_request s with
    | Ok _ -> Alcotest.failf "%S unexpectedly parsed" s
    | Error (code, _) -> code
  in
  (match ok "HELLO weakord/1" with
  | Wire.Hello v -> check_string "hello version" "weakord/1" v
  | _ -> Alcotest.fail "not a Hello");
  (match ok "submit seed 3 machine=def1" with
  | Wire.Submit line -> check_string "job line" "seed 3 machine=def1" line
  | _ -> Alcotest.fail "not a Submit");
  (match ok "RESULT 42 WAIT" with
  | Wire.Result { ticket; wait } ->
      check_int "ticket" 42 ticket;
      check "wait flag" true wait
  | _ -> Alcotest.fail "not a Result");
  (match ok "STATUS 7" with
  | Wire.Status 7 -> ()
  | _ -> Alcotest.fail "not STATUS 7");
  check_int "unknown verb is 404" Wire.e_unknown (err "FROBNICATE 1");
  check_int "bad ticket is 400" Wire.e_bad (err "STATUS seven");
  check_int "bare RESULT is 400" Wire.e_bad (err "RESULT");
  check_int "empty request is 400" Wire.e_bad (err "")

(* --- fuzz --------------------------------------------------------------------- *)

let test_fuzz_clean_range () =
  (* A small slice of the corpus through the full three-way oracle: the
     three implementations must agree (this is the in-process miniature
     of the 10^4-seed acceptance run). *)
  let cfg = { Fuzz.default_cfg with sim_limit = 50_000 } in
  let s = Fuzz.run cfg ~lo:0 ~hi:11 in
  check_int "all programs checked" 12 s.Fuzz.programs;
  check "many oracle comparisons" true (s.Fuzz.checks > 100);
  (match s.Fuzz.disagreements with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "oracle disagreement at seed %d: %s (%s)" d.Fuzz.d_seed
        d.Fuzz.d_check d.Fuzz.d_detail);
  check "not suspended" false s.Fuzz.suspended;
  check_int "resume point past the range" 12 s.Fuzz.next_seed;
  check_int "clean range exits 0" 0 (Fuzz.exit_code s)

let test_fuzz_deadline () =
  let cfg = { Fuzz.default_cfg with deadline_s = Some 0. } in
  let s = Fuzz.run cfg ~lo:0 ~hi:99 in
  check "deadline suspends" true s.Fuzz.suspended;
  check "resume point within range" true (s.Fuzz.next_seed <= 99);
  check_int "suspension exits 3" 3 (Fuzz.exit_code s)

let test_fuzz_quarantine_recipe () =
  (* The quarantine dossier must carry a seed-exact repro recipe even
     though no real disagreement exists to trigger it. *)
  let dir = Filename.temp_file "weakord_quar" "" in
  Sys.remove dir;
  let cfg = { Fuzz.default_cfg with quarantine = Some dir } in
  let prog = Litmus_gen.generate ~config:cfg.Fuzz.config 5 in
  let d =
    Fuzz.quarantine_seed cfg ~seed:5 ~prog ~check:"unit-test" ~detail:"forced"
  in
  (match d with
  | None -> Alcotest.fail "quarantine wrote nothing"
  | Some report ->
      let body = In_channel.with_open_bin report In_channel.input_all in
      check "report names the seed recipe" true
        (contains ~sub:"weakord gen --seed 5" body);
      check "report names the fuzz rerun" true
        (contains ~sub:"--seeds 5..5" body);
      check "litmus source written" true
        (Sys.file_exists (Filename.concat dir "seed5.litmus")));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_fuzz_check_seed_matches_run () =
  (* The fleet's shard workers accumulate [check_seed] reports; their
     sums must reproduce exactly what an in-process [Fuzz.run] over the
     same range tallies, or resumed fleet campaigns would drift from
     uninterrupted fuzz runs. *)
  let cfg = { Fuzz.default_cfg with sim_limit = 50_000 } in
  let lo, hi = (0, 7) in
  let s = Fuzz.run cfg ~lo ~hi in
  let checks = ref 0
  and dis = ref 0
  and sim_runs = ref 0
  and wedged = ref 0
  and skipped = ref 0
  and states = ref 0 in
  for seed = lo to hi do
    let _prog, r = Fuzz.check_seed cfg seed in
    checks := !checks + r.Fuzz.sr_checks;
    dis := !dis + List.length r.Fuzz.sr_disagreements;
    sim_runs := !sim_runs + r.Fuzz.sr_sim_runs;
    wedged := !wedged + r.Fuzz.sr_sim_wedged;
    skipped := !skipped + r.Fuzz.sr_sim_skipped;
    states := !states + r.Fuzz.sr_states
  done;
  check_int "checks agree" s.Fuzz.checks !checks;
  check_int "disagreements agree" (List.length s.Fuzz.disagreements) !dis;
  check_int "sim runs agree" s.Fuzz.sim_runs !sim_runs;
  check_int "sim wedges agree" s.Fuzz.sim_wedged !wedged;
  check_int "sim skips agree" s.Fuzz.sim_skipped !skipped;
  check_int "states agree" s.Fuzz.states_total !states

(* --- shrink ------------------------------------------------------------------- *)

let test_shrink_ddmin_minimal () =
  (* Against a pure size predicate, ddmin must reach the exact floor:
     any surviving instruction beyond it would violate 1-minimality. *)
  let prog = Litmus_gen.generate 11 in
  check "sample program is big enough" true (Shrink.instr_count prog >= 4);
  let pred p = Shrink.instr_count p >= 2 in
  let min, stats = Shrink.ddmin ~pred prog in
  check "result satisfies the predicate" true (pred min);
  check_int "shrunk to the 2-instruction floor" 2 (Shrink.instr_count min);
  check "search spent tests" true (stats.Shrink.s_tests > 0);
  check "budget not exhausted" false stats.Shrink.s_gave_up

let test_shrink_rejects_passing_input () =
  let prog = Litmus_gen.generate 3 in
  match Shrink.ddmin ~pred:(fun _ -> false) prog with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ddmin accepted a program the predicate rejects"

let test_shrink_budget_sound () =
  (* A starved budget must still return a predicate-satisfying program
     (possibly non-minimal) and own up via [s_gave_up]. *)
  let prog = Litmus_gen.generate 11 in
  let pred p = Shrink.instr_count p >= 2 in
  let min, stats = Shrink.ddmin ~max_tests:3 ~pred prog in
  check "starved result still satisfies pred" true (pred min);
  check "gave up reported" true stats.Shrink.s_gave_up

(* --- fleet internals ---------------------------------------------------------- *)

let test_fleet_unit_plan () =
  let plan = Fleet.units_of_range ~lo:0 ~hi:9 ~unit_seeds:4 in
  check "plan partitions the range" true (plan = [ (0, 3); (4, 7); (8, 9) ]);
  check "oversized unit collapses to one" true
    (Fleet.units_of_range ~lo:5 ~hi:9 ~unit_seeds:100 = [ (5, 9) ]);
  check "single-seed range" true
    (Fleet.units_of_range ~lo:7 ~hi:7 ~unit_seeds:4 = [ (7, 7) ]);
  (* Exhaustive coverage check over a few shapes: every seed in exactly
     one unit, units contiguous and ordered. *)
  List.iter
    (fun (lo, hi, us) ->
      let plan = Fleet.units_of_range ~lo ~hi ~unit_seeds:us in
      let covered =
        List.concat_map
          (fun (a, b) -> List.init (b - a + 1) (fun i -> a + i))
          plan
      in
      check "plan covers the range exactly" true
        (covered = List.init (hi - lo + 1) (fun i -> lo + i)))
    [ (0, 9, 1); (0, 9, 3); (3, 17, 5); (0, 0, 256) ]

let test_fleet_wedge_rule () =
  (* The injected-hang rule doubles as the poison-shrink predicate: it
     must be deterministic, fire only on listed seeds, and keep firing
     down to (exactly) a two-instruction program so ddmin has a floor. *)
  let prog = Litmus_gen.generate 57 in
  check "fires on a listed seed" true
    (Fleet.wedge_fires ~wedge_seeds:[ 57 ] ~seed:57 prog);
  check "ignores unlisted seeds" false
    (Fleet.wedge_fires ~wedge_seeds:[ 57 ] ~seed:58 prog);
  check "ignores an empty wedge list" false
    (Fleet.wedge_fires ~wedge_seeds:[] ~seed:57 prog);
  let min, _ =
    Shrink.ddmin ~pred:(Fleet.wedge_fires ~wedge_seeds:[ 57 ] ~seed:57) prog
  in
  check_int "poison reproducer shrinks to the wedge floor" 2
    (Shrink.instr_count min);
  check "minimal reproducer is strictly smaller" true
    (Shrink.instr_count min < Shrink.instr_count prog)

(* --- supervisors ---------------------------------------------------------------- *)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false

let test_exit_channel_siblings () =
  (* The quick child is forked first, so the wedged one would inherit
     its write end if the parent still held it: the quick child's EOF
     must not wait for its wedged sibling. *)
  let quick = Runner.fork_watched (fun () -> Unix._exit 0) in
  let wedged =
    Runner.fork_watched (fun () ->
        while true do
          try Unix.sleepf 1. with Unix.Unix_error _ -> ()
        done)
  in
  let kill_wedged () =
    (try Unix.kill wedged.Runner.pid Sys.sigkill with Unix.Unix_error _ -> ());
    Runner.reap wedged
  in
  let rs, _, _ =
    try Unix.select [ quick.Runner.fd ] [] [] 5.
    with e ->
      ignore (kill_wedged ());
      raise e
  in
  if rs = [] then begin
    ignore (kill_wedged ());
    Alcotest.fail "the quick child's exit channel stayed silent"
  end;
  check "the quick child is reaped with status 0" true
    (Runner.reap quick = Unix.WEXITED 0);
  let still_alive = alive wedged.Runner.pid in
  check "the wedged sibling dies by SIGKILL" true
    (kill_wedged () = Unix.WSIGNALED Sys.sigkill);
  check "the wedged sibling was alive after the quick one was reaped" true
    still_alive

let batch_cfg out =
  { Batch.default_cfg with Batch.out = Some out; workers = 2; backoff_ms = 10 }

let batch_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_batch_timeout_wakes () =
  (* Nothing but the timeout deadline ends the wedge's attempts: were
     the supervisor woken only by the 1 s backstop, two attempts would
     take 2 s. *)
  let jobs = parse_ok "machine def2\nwedge\nseeds 0..2\n" in
  let out = tmp_path ".jsonl" in
  let s =
    Batch.run { (batch_cfg out) with timeout_s = 0.3; retries = 2 } jobs
  in
  let recs = batch_records out in
  Sys.remove out;
  check_int "one record per job" 4 (List.length recs);
  check_int "three ok" 3
    (List.length (List.filter (contains ~sub:{|"status":"ok"|}) recs));
  (match List.filter (contains ~sub:{|"status":"quarantined"|}) recs with
  | [ q ] ->
      check "the wedge was timed out" true
        (contains ~sub:"timeout: SIGKILL after 0.3s" q)
  | _ -> Alcotest.fail "expected exactly one quarantined record");
  check_int "completed with quarantine" 4 (Batch.exit_code s);
  check "woken by the timeouts, not the backstop" true (s.Batch.wall_s < 1.5)

let test_batch_deadline_wakes () =
  let jobs = parse_ok "machine def2\nwedge\n" in
  let out = tmp_path ".jsonl" in
  let s =
    Batch.run
      { (batch_cfg out) with timeout_s = 30.; deadline_s = Some 0.2 }
      jobs
  in
  Sys.remove out;
  check "suspended" true s.Batch.suspended;
  check_int "the wedge is pending" 1 s.Batch.pending;
  check "woken by the deadline, not the backstop" true (s.Batch.wall_s < 0.9)

let test_fleet_end_to_end () =
  let out = tmp_path ".jsonl" in
  let s =
    Fleet.run
      {
        Fleet.default_cfg with
        Fleet.shards = 1;
        unit_seeds = 10;
        out = Some out;
      }
      ~lo:0 ~hi:29
  in
  let recs = batch_records out in
  Sys.remove out;
  check_int "every seed checked" 30 s.Fleet.f_programs;
  check_int "no disagreement" 0 s.Fleet.f_disagreements;
  check_int "three units done" 3 s.Fleet.f_units_done;
  check_int "one record per unit" 3 (List.length recs);
  check_int "clean campaign exits 0" 0 (Fleet.exit_code s)

let test_fleet_hang_convicts_the_seed () =
  (* The heartbeat slot must name the seed a shard wedged on: the first
     hang bisects the unit around it, the second poisons exactly it. *)
  let out = tmp_path ".jsonl" in
  let t0 = Unix.gettimeofday () in
  let s =
    Fleet.run
      {
        Fleet.default_cfg with
        Fleet.shards = 1;
        unit_seeds = 10;
        wedge_seeds = [ 5 ];
        hang_timeout_s = 0.3;
        retries = 2;
        backoff_ms = 10;
        out = Some out;
      }
      ~lo:0 ~hi:9
  in
  let wall = Unix.gettimeofday () -. t0 in
  Sys.remove out;
  check "the wedge seed is the one poison" true
    (List.map (fun p -> p.Fleet.p_seed) s.Fleet.f_poison = [ 5 ]);
  check_int "every other seed checked" 9 s.Fleet.f_programs;
  check_int "each of the two hangs bisects" 2 s.Fleet.f_units_split;
  check_int "a campaign with poison exits 4" 4 (Fleet.exit_code s);
  check "convicted within the hang budget, not a multiple of it" true
    (wall < 2.)

let test_exit_channel_raising_child () =
  (* An exception in the child must end the child, with exit 10, and
     never unwind into the code it shares with the parent. *)
  let c =
    Runner.fork_watched (fun () ->
        Runner.redirect_stderr "/dev/null";
        failwith "engine raised")
  in
  ignore (Unix.select [ c.Runner.fd ] [] [] 5. : _ * _ * _);
  check "a raising child exits 10" true (Runner.reap c = Unix.WEXITED 10)

(* --- persistent workers ------------------------------------------------------- *)

(* Fails unless this process has no child left, zombie or alive. *)
let no_children what =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a child is still running" what
  | pid, _ -> Alcotest.failf "%s: child %d outlived its supervisor" what pid

let strip_trailer r =
  let k = {|,"cached":|} in
  let n = String.length k in
  let rec last i =
    if i < 0 then r else if String.sub r i n = k then String.sub r 0 i else last (i - 1)
  in
  last (String.length r - n)

let test_batch_worker_reuse () =
  (* One worker slot serves every job: a job's verdict must not depend
     on what the worker ran before it, and a job after a killed wedge
     must still run, on a re-forked worker. *)
  let jobs =
    parse_ok
      "seeds 0..9 machine=def2\n\
       seeds 10..14 machine=wbuf\n\
       wedge\n\
       seeds 15..19 machine=wbuf\n\
       seeds 20..29 machine=def2-rs\n"
  in
  let out = tmp_path ".jsonl" in
  let log = ref [] in
  let s =
    Batch.run
      {
        (batch_cfg out) with
        workers = 1;
        timeout_s = 0.3;
        retries = 2;
        cache = Verdict_cache.in_memory ();
        verbose = true;
        log = (fun l -> log := l :: !log);
      }
      jobs
  in
  let recs = batch_records out in
  Sys.remove out;
  check_int "one record per job" 31 (List.length recs);
  let by_job = Hashtbl.create 32 in
  List.iter
    (fun r ->
      Scanf.sscanf r {|{"job":%d|} (fun id -> Hashtbl.replace by_job id r))
    recs;
  List.iter
    (fun (j : Job.t) ->
      let r = Hashtbl.find by_job j.Job.id in
      match (Runner.materialize ~model:Worker.Drf0 j).Runner.m_prog with
      | None ->
          check "the wedge is quarantined by its timeout" true
            (contains ~sub:{|"status":"quarantined"|} r
            && contains ~sub:"timeout: SIGKILL" r)
      | Some (prog, _, _) -> (
          let machine = Option.get (Machines.find j.Job.machine) in
          match Worker.run ~model:Worker.Drf0 ~machine prog with
          | Ok v ->
              check_string
                (Printf.sprintf "job %d equals the in-process verdict" j.Job.id)
                (strip_trailer
                   (Runner.verdict_record j v ~cached:false ~attempts:1 ~ms:0.))
                (strip_trailer r)
          | Error `Cancelled -> Alcotest.fail "in-process run cancelled"))
    jobs;
  check_int "completed with quarantine" 4 (Batch.exit_code s);
  let pids =
    List.sort_uniq compare
      (List.filter_map
         (fun l -> Scanf.sscanf_opt l "worker %d started" Fun.id)
         !log)
  in
  let failed = (List.hd s.Batch.quarantined).Batch.q_attempts in
  check_int "two failed attempts, both the wedge's" 2 failed;
  check "at most one worker per failed attempt, plus the first" true
    (List.length pids <= 1 + failed);
  no_children "batch, normal finish"

let test_no_process_outlives () =
  let jobs = parse_ok "machine def2\nseeds 0..3\nwedge\nseeds 4..7\n" in
  let out = tmp_path ".jsonl" in
  let base = { (batch_cfg out) with cache = Verdict_cache.in_memory () } in
  let s = Batch.run { base with timeout_s = 0.2; retries = 1 } jobs in
  check_int "the wedge is timed out" 1 s.Batch.quarantined_total;
  no_children "batch, after a timeout kill";
  (* The drain finds one worker wedged and the other idle. *)
  let s =
    Batch.run
      {
        base with
        cache = Verdict_cache.in_memory ();
        timeout_s = 30.;
        deadline_s = Some 0.3;
      }
      jobs
  in
  check "suspended" true s.Batch.suspended;
  no_children "batch, after a deadline drain";
  Sys.remove out;
  let s =
    Fleet.run
      {
        Fleet.default_cfg with
        Fleet.shards = 2;
        unit_seeds = 5;
        wedge_seeds = [ 3 ];
        hang_timeout_s = 0.3;
        retries = 1;
        backoff_ms = 10;
        out = Some out;
      }
      ~lo:0 ~hi:9
  in
  Sys.remove out;
  check_int "the hang bisects" 1 s.Fleet.f_units_split;
  no_children "fleet, after a hang bisection"

let test_idle_worker_exits_beside_a_wedge () =
  (* The wedged worker is forked second, so it inherits the idle one's
     request write end: unless it closes it, closing the idle worker's
     request pipe never reaches EOF. *)
  let kind = "weakord.test.echo" in
  let idle =
    Runner.fork_persistent ~kind ~siblings:[] (fun ~cancelled:_ ~reply r ->
        reply r)
  in
  let wedged =
    Runner.fork_persistent ~kind ~siblings:[ idle ] (fun ~cancelled:_ ~reply:_ _ ->
        while true do
          try Unix.sleepf 1. with Unix.Unix_error _ -> ()
        done)
  in
  let rec await (w : Runner.worker) =
    match Unix.select [ w.rsp ] [] [] 5. with
    | [], _, _ -> None
    | _ -> ( match Runner.receive w with Runner.Nothing -> await w | e -> Some e)
  in
  check "the idle worker answers" true
    (Runner.send idle "ping" && await idle = Some (Runner.Reply "ping"));
  check "the wedge takes its job" true (Runner.send wedged "spin");
  Unix.close idle.Runner.req;
  let ev = await idle in
  Runner.kill wedged;
  match ev with
  | Some (Runner.Died st) ->
      check "the idle worker exits 0 on EOF" true (st = Unix.WEXITED 0);
      no_children "persistent workers"
  | _ ->
      Runner.kill idle;
      Alcotest.fail "the idle worker never saw EOF beside its wedged sibling"

(* --- checkpoint lag, the daemon and the fleet's stats socket ------------------ *)

let wait_for ~what ?(secs = 10.) cond =
  let t_end = Unix.gettimeofday () +. secs in
  let rec go () =
    if not (cond ()) then
      if Unix.gettimeofday () > t_end then Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
  | exception Sys_error _ -> []

let job_ids recs = List.map (fun r -> Scanf.sscanf r {|{"job":%d|} Fun.id) recs

let test_batch_checkpoint_keeps_up () =
  (* A burst of quick records, then one long job: the checkpoint must
     list the burst while the long job still runs, or a supervisor
     killed then re-runs the burst on --resume and streams it twice. *)
  let jobs = parse_ok "machine def2\nseeds 0..5\nwedge\n" in
  let out = tmp_path ".jsonl" and ck = tmp_path ".ckpt" in
  Sys.remove ck;
  let cfg =
    {
      (batch_cfg out) with
      workers = 2;
      timeout_s = 3.;
      retries = 1;
      cache = Verdict_cache.in_memory ();
      checkpoint = Some ck;
    }
  in
  (* The supervisor leads its own process group, so one kill reaches
     its workers too. *)
  let pid =
    Runner.fork_worker (fun () ->
        ignore (Unix.setsid () : int);
        ignore (Batch.run cfg jobs : Batch.summary))
  in
  let kill_all () =
    (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid : int * Unix.process_status)
  in
  (* A killed supervisor leaves its scratch directory behind; the next
     session removes it. *)
  let scratch =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "weakord-batch-%d" pid)
  in
  (match
     wait_for ~what:"the quick records" (fun () -> List.length (lines out) >= 6);
     Unix.sleepf 0.5
   with
  | () -> ()
  | exception e ->
      kill_all ();
      raise e);
  check "the wedge still runs" true (alive pid);
  kill_all ();
  check "the killed supervisor left its scratch directory" true (Sys.file_exists scratch);
  let s = Batch.run { cfg with resume = Some ck; timeout_s = 0.2 } jobs in
  check "the next run removed it" false (Sys.file_exists scratch);
  let ids = job_ids (lines out) in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ out; ck; ck ^ ".prev" ];
  check_int "the resume finishes the wedge alone" 1 s.Batch.quarantined_total;
  check "every job streamed exactly once" true
    (List.sort compare ids = List.map (fun (j : Job.t) -> j.Job.id) jobs);
  no_children "batch, after a kill and a resume"

let test_scratch_sweep_spares () =
  (* The sweep a new session makes removes only what a dead session
     left.  Each planted entry is named for a PID that no longer exists,
     and each would be removed by a sweep that followed symlinks, took
     any name or trusted that PID. *)
  let tmp = Filename.get_temp_dir_name () in
  let dead = Runner.fork_worker (fun () -> ()) in
  ignore (Unix.waitpid [] dead : int * Unix.process_status);
  let named name = Filename.concat tmp (Printf.sprintf "weakord-%s-%d" name dead) in
  let write path = Out_channel.with_open_bin path (fun oc -> output_string oc "x") in
  let mkdir_with files =
    let d = Filename.temp_dir ~temp_dir:tmp "weakord_sweep" "" in
    List.iter (fun f -> write (Filename.concat d f)) files;
    d
  in
  (* A directory of someone's files, a lock file among them. *)
  let victim = mkdir_with [ "a"; "b"; "session.lock" ] in
  let victim_files () = List.sort compare (Array.to_list (Sys.readdir victim)) in
  (* [batch]: a symlink to it. *)
  Unix.symlink victim (named "batch");
  (* [fleet]: a directory whose lock another process holds, as a live
     session in another PID namespace would. *)
  let held = mkdir_with [ "session.lock"; "job1.stderr" ] in
  Sys.rename held (named "fleet");
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let holder =
    Runner.fork_worker (fun () ->
        let fd = Unix.openfile (Filename.concat (named "fleet") "session.lock") [ Unix.O_RDWR ] 0 in
        Unix.lockf fd Unix.F_LOCK 0;
        ignore (Unix.write_substring ready_w "k" 0 1 : int);
        Unix.sleep 60)
  in
  Unix.close ready_w;
  ignore (Unix.read ready_r (Bytes.create 1) 0 1 : int);
  Unix.close ready_r;
  (* [daemon]: an unlocked directory holding a symlink to a file of the
     victim's. *)
  let open_dir = mkdir_with [ "session.lock" ] in
  Unix.symlink (Filename.concat victim "a") (Filename.concat open_dir "t1.result");
  Sys.rename open_dir (named "daemon");
  (* [other]: an unlocked directory under a name no session uses. *)
  Sys.rename (mkdir_with [ "session.lock" ]) (named "other");
  let out = tmp_path ".jsonl" in
  let finish () =
    (try Unix.kill holder Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] holder : int * Unix.process_status)
  in
  Fun.protect ~finally:finish (fun () ->
      ignore (Batch.run (batch_cfg out) (parse_ok "machine sc\nseeds 0..1\n") : Batch.summary));
  Sys.remove out;
  check "the symlink survives" true ((Unix.lstat (named "batch")).Unix.st_kind = Unix.S_LNK);
  check "the files behind it survive" true (victim_files () = [ "a"; "b"; "session.lock" ]);
  check "a held lock keeps its directory" true
    (Sys.file_exists (Filename.concat (named "fleet") "job1.stderr"));
  check "a symlink in a dead directory is not followed" true
    ((Unix.lstat (Filename.concat (named "daemon") "t1.result")).Unix.st_kind = Unix.S_LNK);
  check "an unknown name is kept" true (Sys.file_exists (named "other"));
  (* Once its holder is gone, the next session removes the directory. *)
  ignore (Batch.run (batch_cfg out) (parse_ok "machine sc\nseeds 0..1\n") : Batch.summary);
  Sys.remove out;
  check "a released lock frees its directory" false (Sys.file_exists (named "fleet"));
  let rm_dir d =
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  in
  Sys.remove (named "batch");
  List.iter rm_dir [ victim; named "daemon"; named "other" ];
  no_children "batch, after the scratch sweep"

let connect path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        go (n - 1)
  in
  go 200

(* One request, one response, on a blocking socket. *)
let request fd dec payload =
  let f = Wire.frame payload in
  ignore (Unix.write_substring fd f 0 (String.length f) : int);
  let buf = Bytes.create 4096 in
  let rec read () =
    match Wire.next dec with
    | Ok (Some r) -> r
    | Error e -> Alcotest.failf "bad frame from the server: %s" e
    | Ok None ->
        let n = Unix.read fd buf 0 4096 in
        if n = 0 then Alcotest.fail "the server hung up";
        Wire.feed dec (Bytes.sub_string buf 0 n);
        read ()
  in
  read ()

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_daemon_in_process () =
  let socket = tmp_path ".sock" in
  Sys.remove socket;
  let pid =
    Runner.fork_worker (fun () ->
        ignore
          (Daemon.run
             {
               Daemon.default_cfg with
               Daemon.socket;
               workers = 2;
               cache = Verdict_cache.in_memory ();
             }
            : Daemon.summary))
  in
  let fd = connect socket and dec = Wire.decoder () in
  let ask = request fd dec in
  check "HELLO is answered" true
    (starts_with ~prefix:"OK weakord/1 engine=" (ask ("HELLO " ^ Wire.greeting)));
  check_string "a miss gets ticket 0" "OK ticket=0" (ask "SUBMIT seed 3");
  let miss = ask "RESULT 0 WAIT" in
  check_string "a repeat gets ticket 1" "OK ticket=1" (ask "SUBMIT seed 3");
  let hit = ask "RESULT 1 WAIT" in
  let late = connect socket in
  check "a request before HELLO is refused" true
    (starts_with ~prefix:"ERR 401" (request late (Wire.decoder ()) "PING"));
  Unix.close late;
  let stats = ask "STATS" in
  check "DRAIN is acknowledged" true (starts_with ~prefix:"OK draining" (ask "DRAIN"));
  let _, status = Unix.waitpid [] pid in
  Unix.close fd;
  check "the daemon returns" true (status = Unix.WEXITED 0);
  check "one verdict came from the cache" true
    (contains ~sub:{|"served_from_cache":1,|} stats);
  check "the repeat is a cache hit" true (contains ~sub:{|"cached":true|} hit);
  let j = List.hd (parse_ok "seed 3\n") in
  let prog, _, _ = Option.get (Runner.materialize ~model:Worker.Drf0 j).Runner.m_prog in
  (match Worker.run ~model:Worker.Drf0 ~machine:Machines.def2 prog with
  | Ok v ->
      List.iter
        (fun (id, r) ->
          check_string
            (Printf.sprintf "ticket %d equals the in-process verdict" id)
            ("OK "
            ^ strip_trailer
                (Runner.verdict_record { j with Job.id } v ~cached:false ~attempts:1
                   ~ms:0.))
            (strip_trailer r))
        [ (0, miss); (1, hit) ]
  | Error `Cancelled -> Alcotest.fail "in-process run cancelled");
  no_children "daemon"

let test_fleet_stats_socket () =
  let socket = tmp_path ".sock" and out = tmp_path ".jsonl" in
  Sys.remove socket;
  (* The one seed wedges, which keeps the campaign serving until the
     hang rule poisons it, however slow the host. *)
  let pid =
    Runner.fork_worker (fun () ->
        ignore
          (Fleet.run
             {
               Fleet.default_cfg with
               Fleet.shards = 1;
               wedge_seeds = [ 0 ];
               hang_timeout_s = 2.;
               retries = 1;
               stats_socket = Some socket;
               out = Some out;
             }
             ~lo:0 ~hi:0
            : Fleet.summary))
  in
  let fd = connect socket and dec = Wire.decoder () in
  let ask = request fd dec in
  check "HELLO is answered" true
    (starts_with ~prefix:"OK weakord/1" (ask ("HELLO " ^ Wire.greeting)));
  let submit = ask "SUBMIT seed 1" in
  let stats = ask "STATS" in
  let drain = ask "DRAIN" in
  let _, status = Unix.waitpid [] pid in
  Unix.close fd;
  Sys.remove out;
  check "SUBMIT is an unknown verb here" true
    (starts_with ~prefix:(Printf.sprintf "ERR %d" Wire.e_unknown) submit);
  check "STATS answers with the gauges" true
    (starts_with ~prefix:{|OK {"shards":|} stats);
  check "DRAIN is acknowledged" true (starts_with ~prefix:"OK draining" drain);
  check "the fleet returns" true (status = Unix.WEXITED 0);
  no_children "fleet with a stats socket"

let test_job_profile_opt () =
  let jobs = parse_ok "seed 4 profile=wide\n" in
  (match (List.hd jobs).Job.source with
  | Job.Seed { config; _ } ->
      check "profile genopt lands in the config" true
        (config.Litmus_gen.profile = Litmus_gen.Wide);
      check_string "gen args reproduce the profile" "--seed 4 --profile wide"
        (Job.gen_args (List.hd jobs).Job.source)
  | _ -> Alcotest.fail "seed job not parsed as Seed");
  check "unknown profile rejected with location" true
    (let e = parse_err "seed 4 profile=sideways\n" in
     String.length e > 5 && String.sub e 0 5 = "line ")

let suite =
  ( "service",
    [
      Alcotest.test_case "job file parses and expands" `Quick test_job_parse;
      Alcotest.test_case "job file errors are located" `Quick
        test_job_parse_errors;
      Alcotest.test_case "job-list fingerprint" `Quick test_job_fingerprint;
      Alcotest.test_case "verdict cache round-trips" `Quick
        test_cache_roundtrip;
      Alcotest.test_case "cache keys on canonical text" `Quick test_cache_key;
      Alcotest.test_case "corrupt record recomputed, neighbors kept" `Quick
        test_cache_corruption;
      Alcotest.test_case "torn tail skipped" `Quick test_cache_torn_tail;
      Alcotest.test_case "backoff is deterministic and bounded" `Quick
        test_backoff;
      Alcotest.test_case "worker verdict on a racing program" `Quick
        test_worker_verdict;
      Alcotest.test_case "worker honors the cancel hook" `Quick
        test_worker_cancel;
      Alcotest.test_case "worker verdict on an obeying program" `Quick
        test_worker_obeying;
      Alcotest.test_case "wire frames round-trip" `Quick test_wire_roundtrip;
      Alcotest.test_case "wire decoder is incremental" `Quick
        test_wire_incremental;
      Alcotest.test_case "wire decoder latches on error" `Quick
        test_wire_latching;
      Alcotest.test_case "wire rejects oversize frames" `Quick
        test_wire_oversize;
      Alcotest.test_case "wire request grammar" `Quick test_wire_parse;
      Alcotest.test_case "fuzz: clean oracle over a seed range" `Quick
        test_fuzz_clean_range;
      Alcotest.test_case "fuzz: deadline suspends with resume seed" `Quick
        test_fuzz_deadline;
      Alcotest.test_case "fuzz: quarantine carries the repro recipe" `Quick
        test_fuzz_quarantine_recipe;
      Alcotest.test_case "fuzz: check_seed sums match run" `Quick
        test_fuzz_check_seed_matches_run;
      Alcotest.test_case "shrink: ddmin reaches the minimal floor" `Quick
        test_shrink_ddmin_minimal;
      Alcotest.test_case "shrink: passing input rejected" `Quick
        test_shrink_rejects_passing_input;
      Alcotest.test_case "shrink: starved budget stays sound" `Quick
        test_shrink_budget_sound;
      Alcotest.test_case "fleet: unit plan partitions the range" `Quick
        test_fleet_unit_plan;
      Alcotest.test_case "fleet: wedge rule and poison shrink floor" `Quick
        test_fleet_wedge_rule;
      Alcotest.test_case "job profile genopt round-trips" `Quick
        test_job_profile_opt;
      Alcotest.test_case "exit channel: no sibling holds a write end" `Quick
        test_exit_channel_siblings;
      Alcotest.test_case "batch: the timeout alone wakes the supervisor"
        `Quick test_batch_timeout_wakes;
      Alcotest.test_case "batch: the deadline alone wakes the supervisor"
        `Quick test_batch_deadline_wakes;
      Alcotest.test_case "fleet: a campaign end to end" `Quick
        test_fleet_end_to_end;
      Alcotest.test_case "fleet: a hang convicts its seed" `Quick
        test_fleet_hang_convicts_the_seed;
      Alcotest.test_case "exit channel: a raising child exits 10" `Quick
        test_exit_channel_raising_child;
      Alcotest.test_case "batch: one reused worker equals in-process verdicts"
        `Quick test_batch_worker_reuse;
      Alcotest.test_case "batch and fleet leave no child process" `Quick
        test_no_process_outlives;
      Alcotest.test_case "persistent: an idle worker exits beside a wedge"
        `Quick test_idle_worker_exits_beside_a_wedge;
      Alcotest.test_case "batch: the checkpoint keeps up with a burst" `Quick
        test_batch_checkpoint_keeps_up;
      Alcotest.test_case "session: the scratch sweep spares what is not stale" `Quick
        test_scratch_sweep_spares;
      Alcotest.test_case "daemon: a miss, a hit and a drain in process" `Quick
        test_daemon_in_process;
      Alcotest.test_case "fleet: the stats socket refuses job verbs" `Quick
        test_fleet_stats_socket;
    ] )
