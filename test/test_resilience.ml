(* The resilience layer: CRC-framed snapshots, atomic installs, budgets,
   checkpoint/resume of the exploration engine, and the spill store that
   honours a memory budget.  The contract under test everywhere: a
   resumed run reaches exactly the state an uninterrupted one does,
   corrupted or mismatched checkpoints are rejected loudly, and memory
   pressure never costs coverage (a budgeted sweep is Complete and equal
   to the exact one). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let corpus = List.map (fun e -> e.Litmus_classics.prog) Litmus_classics.all
let prog_of n = (Option.get (Litmus_classics.find n)).Litmus_classics.prog

let gen_progs =
  List.filter_map
    (fun seed -> Litmus_gen.generate_live ~max_attempts:20 seed)
    (List.init 20 Fun.id)

let tmp_path suffix = Filename.temp_file "weakord_test" suffix

let set_eq = Final.Set.equal

(* A deadline that is strictly in the past: [gettimeofday] has microsecond
   resolution, so a 0-second deadline checked in the same microsecond it
   was created is not yet "over" — let the clock tick first. *)
let expired_budget () =
  let b = Budget.create ~deadline_s:0. () in
  Unix.sleepf 0.002;
  b

(* --- crc32 ------------------------------------------------------------------ *)

let test_crc32 () =
  (* The IEEE 802.3 check value for "123456789". *)
  check_int "known answer" 0xCBF43926 (Crc32.digest "123456789");
  check_int "empty" 0 (Crc32.digest "");
  check_int "digest_sub agrees"
    (Crc32.digest "456")
    (Crc32.digest_sub "123456789" ~pos:3 ~len:3);
  check "order matters" true (Crc32.digest "ab" <> Crc32.digest "ba")

(* --- atomic file install ---------------------------------------------------- *)

let no_temp_beside path =
  let dir = Filename.dirname path and base = Filename.basename path in
  not
    (Array.exists
       (fun f -> String.starts_with ~prefix:(base ^ ".tmp") f)
       (Sys.readdir dir))

let test_atomic_io () =
  let path = tmp_path ".txt" in
  Atomic_io.write_file path "first";
  check "content installed" true (In_channel.with_open_bin path In_channel.input_all = "first");
  Atomic_io.write_file path "second generation";
  check "overwrite installed" true
    (In_channel.with_open_bin path In_channel.input_all = "second generation");
  check "no temp file left" true (no_temp_beside path);
  (* A writer that raises must leave the previous content untouched and
     clean up its temp file. *)
  (try
     Atomic_io.with_file path (fun oc ->
         output_string oc "garbage";
         failwith "boom")
   with Failure _ -> ());
  check "failed write left old content" true
    (In_channel.with_open_bin path In_channel.input_all = "second generation");
  check "failed write cleaned temp" true (no_temp_beside path);
  Sys.remove path

(* --- snapshot container ----------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let payload = String.init 1000 (fun i -> Char.chr (i * 7 mod 256)) in
  let framed = Snapshot.frame ~kind:"test/kind" ~meta:"some meta" ~payload in
  match Snapshot.unframe framed with
  | Error e -> Alcotest.failf "round trip failed: %s" (Snapshot.error_string e)
  | Ok c ->
      check "kind" true (c.Snapshot.kind = "test/kind");
      check "meta" true (c.Snapshot.meta = "some meta");
      check "payload" true (c.Snapshot.payload = payload)

let test_snapshot_rejects_corruption () =
  let framed =
    Snapshot.frame ~kind:"test/kind" ~meta:"m" ~payload:"payload bytes here"
  in
  (* Flip one bit in the payload region (the tail of the frame). *)
  let b = Bytes.of_string framed in
  let i = Bytes.length b - 4 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  (match Snapshot.unframe (Bytes.to_string b) with
  | Error Snapshot.Crc_mismatch -> ()
  | Error e -> Alcotest.failf "wanted Crc_mismatch, got %s" (Snapshot.error_string e)
  | Ok _ -> Alcotest.fail "bit-flipped snapshot accepted");
  (* Truncation: cut the frame short. *)
  (match Snapshot.unframe (String.sub framed 0 (String.length framed - 5)) with
  | Error (Snapshot.Truncated | Snapshot.Crc_mismatch) -> ()
  | Error e -> Alcotest.failf "wanted Truncated, got %s" (Snapshot.error_string e)
  | Ok _ -> Alcotest.fail "truncated snapshot accepted");
  (* Not a snapshot at all. *)
  (match Snapshot.unframe "just some file" with
  | Error Snapshot.Not_a_snapshot -> ()
  | _ -> Alcotest.fail "garbage accepted as snapshot");
  (* Version skew: a frame stamped with a future format version (rewrite
     the first header line, keep the rest byte-identical). *)
  let skewed =
    let nl = String.index framed '\n' in
    Printf.sprintf "WOSNAP %d%s"
      (Snapshot.format_version + 1)
      (String.sub framed nl (String.length framed - nl))
  in
  match Snapshot.unframe skewed with
  | Error (Snapshot.Version_skew { found; expected }) ->
      check_int "found version" (Snapshot.format_version + 1) found;
      check_int "expected version" Snapshot.format_version expected
  | Error e -> Alcotest.failf "wanted Version_skew, got %s" (Snapshot.error_string e)
  | Ok _ -> Alcotest.fail "version-skewed snapshot accepted"

let test_snapshot_prev_generation () =
  let path = tmp_path ".snap" in
  Snapshot.write_file path
    (Snapshot.frame ~kind:"k" ~meta:"gen1" ~payload:"one");
  Snapshot.write_file path
    (Snapshot.frame ~kind:"k" ~meta:"gen2" ~payload:"two");
  check "prev retained" true (Sys.file_exists (Snapshot.prev_path path));
  (* Primary valid: no fallback. *)
  (match Snapshot.load path with
  | Ok { Snapshot.container; recovered } ->
      check "fresh load" false recovered;
      check "latest generation" true (container.Snapshot.payload = "two")
  | Error _ -> Alcotest.fail "valid primary rejected");
  (* Corrupt the primary: load falls back to the last-good generation and
     says so. *)
  Out_channel.with_open_bin path (fun oc -> output_string oc "smashed");
  (match Snapshot.load path with
  | Ok { Snapshot.container; recovered } ->
      check "recovered flagged" true recovered;
      check "prev generation served" true (container.Snapshot.payload = "one")
  | Error _ -> Alcotest.fail "fallback to .prev failed");
  (* Both generations bad: a loud error, not garbage. *)
  Out_channel.with_open_bin (Snapshot.prev_path path) (fun oc ->
      output_string oc "also smashed");
  (match Snapshot.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot pair accepted");
  Sys.remove path;
  Sys.remove (Snapshot.prev_path path)

(* --- bloom filter ------------------------------------------------------------ *)

let test_bloom () =
  let b = Bloom.create ~bits:(1 lsl 14) in
  check "fresh add is new" false (Bloom.add_mem b 12345 6789);
  check "second add is seen" true (Bloom.add_mem b 12345 6789);
  check "other key is new" false (Bloom.add_mem b 54321 987);
  check "mem sees an added key" true (Bloom.mem b 54321 987);
  check "mem does not insert" false (Bloom.mem b 1 3);
  check "absent key still new" false (Bloom.add_mem b 1 3)

(* --- budgets ----------------------------------------------------------------- *)

let test_budget () =
  let b = Budget.create ~deadline_s:0. ~mem_bytes:100 () in
  Unix.sleepf 0.002;
  check "deadline 0 expires" true (Budget.over_deadline b);
  check "under memory" false (Budget.over_memory b ~bytes:50);
  check "over memory" true (Budget.over_memory b ~bytes:200);
  check "memory wins ties" true (Budget.check b ~bytes:200 = Some Budget.Memory);
  let d = Budget.deadline_only b in
  check "deadline_only drops memory" false (Budget.over_memory d ~bytes:1_000_000);
  check "deadline_only keeps deadline" true (Budget.over_deadline d);
  check "unlimited" true (Budget.is_unlimited Budget.unlimited);
  match Budget.create ~deadline_s:(-1.) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative deadline accepted"

(* --- explore: checkpoint / resume ------------------------------------------- *)

let explore_with ?fuel ?domains ?adaptive ?reduce ?(sym = true) ?spill_dir
    ?budget ?resume ?(every = 50) ?on_snap m prog =
  let last = ref None in
  let rcfg =
    {
      Explore.rcfg_default with
      Explore.budget;
      checkpoint_every = every;
      snapshot_sink =
        Some
          (fun bytes ->
            last := Some bytes;
            match on_snap with Some f -> f bytes | None -> ());
      resume;
      sym;
      spill_dir;
    }
  in
  let r = Machines.explore ?domains ?adaptive ?reduce ?fuel ~rcfg m prog in
  (r, !last)

let test_explore_resume_equals_uninterrupted () =
  List.iter
    (fun (mname, tname) ->
      let m = Option.get (Machines.find mname) in
      let prog = prog_of tname in
      let full = Machines.explore m prog in
      let full_set = Explore.bounded_value full.Explore.result in
      let full_states = full.Explore.stats.Explore.states_expanded in
      (* Stop a third of the way in, snapshot, resume without the bound:
         same outcome set, same total states expanded. *)
      let fuel = max 1 (full_states / 3) in
      let stopped, snap = explore_with ~fuel m prog in
      check
        (Printf.sprintf "%s/%s stops on fuel" mname tname)
        true
        (stopped.Explore.stop = Some Explore.Fuel_exhausted);
      check
        (Printf.sprintf "%s/%s partial is subset" mname tname)
        true
        (Final.Set.subset
           (Explore.bounded_value stopped.Explore.result)
           full_set);
      let snap = Option.get snap in
      check
        (Printf.sprintf "%s/%s frontier survives the stop" mname tname)
        true
        (Machines.snapshot_frontier_length m snap > 0);
      let resumed, _ = explore_with ~resume:snap m prog in
      check
        (Printf.sprintf "%s/%s resumed run completes" mname tname)
        true
        (Explore.is_complete resumed.Explore.result);
      check
        (Printf.sprintf "%s/%s resumed outcomes == uninterrupted" mname tname)
        true
        (set_eq (Explore.bounded_value resumed.Explore.result) full_set);
      check_int
        (Printf.sprintf "%s/%s resumed total states == uninterrupted" mname
           tname)
        full_states resumed.Explore.stats.Explore.states_expanded)
    [
      ("wbuf", "dekker");
      ("def2", "iriw");
      ("ooo", "mp");
      ("rc", "lb");
      ("sc", "iriw");
    ]

let test_explore_deadline_stop () =
  let m = Machines.def2 and prog = prog_of "dekker" in
  let stopped, snap = explore_with ~budget:(expired_budget ()) m prog in
  check "deadline stops immediately" true
    (stopped.Explore.stop = Some Explore.Deadline_exceeded);
  check_int "nothing expanded" 0 stopped.Explore.stats.Explore.states_expanded;
  (* The initial state is still in the frontier: nothing was lost. *)
  check "initial state in frontier" true
    (Machines.snapshot_frontier_length m (Option.get snap) = 1);
  let resumed, _ = explore_with ~resume:(Option.get snap) m prog in
  check "resume completes" true (Explore.is_complete resumed.Explore.result);
  check "resume matches full" true
    (set_eq
       (Explore.bounded_value resumed.Explore.result)
       (Machines.outcomes m prog))

let test_explore_resume_rejects_mismatch () =
  let m = Machines.def2 in
  let _, snap = explore_with ~fuel:5 m (prog_of "dekker") in
  let snap = Option.get snap in
  (* Wrong program. *)
  (match explore_with ~resume:snap m (prog_of "mp") with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "snapshot for dekker resumed against mp");
  (* Wrong machine. *)
  (match explore_with ~resume:snap Machines.wbuf (prog_of "dekker") with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "def2 snapshot resumed on wbuf");
  (* Bit flip. *)
  let b = Bytes.of_string snap in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  match explore_with ~resume:(Bytes.to_string b) m (prog_of "dekker") with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "corrupted snapshot accepted"

(* A frame of the previous engine kind ("explore4", structural keys) is
   refused on its kind, before its payload is read: the payload here is
   not a marshalled value at all, so unmarshalling it would have been
   refused as "does not unmarshal" instead. *)
let test_old_snapshot_kind_rejected () =
  let m = Machines.def2 in
  let kind = "weakord.explore4/def2" in
  let old = Snapshot.frame ~kind ~meta:"old" ~payload:"not a marshalled value" in
  let names_kind msg =
    let n = String.length kind in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = kind || at (i + 1)) in
    at 0
  in
  (match explore_with ~resume:old m (prog_of "dekker") with
  | exception Explore.Resume_rejected msg ->
      check "resume names the old kind" true (names_kind msg)
  | _ -> Alcotest.fail "explore4 snapshot accepted");
  match Machines.snapshot_frontier_length m old with
  | exception Explore.Resume_rejected msg ->
      check "frontier length names the old kind" true (names_kind msg)
  | _ -> Alcotest.fail "explore4 snapshot read"

(* --- spill store: a memory budget spills ------------------------------------- *)

let tmp_dir () = Filename.temp_dir "weakord_spill" ""

(* Run [f] with the temporary directory pointed at a fresh one, which
   must be empty again afterwards: a private spill directory never
   outlives its sweep. *)
let with_fresh_temp_dir label f =
  let saved = Filename.get_temp_dir_name () in
  let fresh = tmp_dir () in
  Filename.set_temp_dir_name fresh;
  let r =
    Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name saved) f
  in
  check (label ^ ": temp dir left empty") true (Sys.readdir fresh = [||]);
  Spill_store.remove_dir fresh;
  r

(* A memory budget small enough that every corpus program crosses it
   almost immediately, exercising the spill on real state graphs.  A
   packed key costs about 70 bytes a visited entry, so the six-state
   [coww] sweep on wbuf needs a budget under 432 bytes to cross it. *)
let tiny_mem = Budget.create ~mem_bytes:256 ()

let test_tiny_budget_spills_exactly () =
  with_fresh_temp_dir "tiny budget" @@ fun () ->
  List.iter
    (fun m ->
      List.iter
        (fun prog ->
          let label what =
            Printf.sprintf "%s/%s %s" (Machines.name m) (Prog.name prog) what
          in
          let exact = Machines.outcomes m prog in
          (* [~sym:false]: symmetry can finish a tiny symmetric program
             in a handful of states, under the bar this test exists to
             cross.  No spill dir: the budget alone must spill. *)
          let r, _ = explore_with ~sym:false ~budget:tiny_mem m prog in
          check (label "is Complete") true
            (Explore.is_complete r.Explore.result);
          check (label "runs spilled") true
            (r.Explore.stats.Explore.spilled_runs > 0);
          check (label "outcomes == exact") true
            (set_eq (Explore.bounded_value r.Explore.result) exact))
        (corpus @ gen_progs))
    [ Machines.wbuf; Machines.def2 ]

let test_spill_store_unit () =
  let dir = tmp_dir () in
  let key i = Marshal.to_string (i, "spill-key") [ Marshal.No_sharing ] in
  let t = Spill_store.create ~dir ~threshold:16 in
  for i = 0 to 99 do
    check (Printf.sprintf "key %d fresh" i) true (Spill_store.add t (key i))
  done;
  for i = 0 to 99 do
    check "re-add seen" false (Spill_store.add t (key i));
    check "mem" true (Spill_store.mem t (key i))
  done;
  check "absent key" false (Spill_store.mem t (key 1000));
  check_int "total" 100 (Spill_store.total t);
  let st = Spill_store.stats t in
  check "runs written" true (st.Spill_store.st_runs > 0);
  check "keys spilled" true (st.Spill_store.st_spilled_keys > 0);
  check "hot tier capped" true (Spill_store.hot_size t <= 16);
  Spill_store.flush t;
  let image = Spill_store.export t in
  Spill_store.close t;
  (* Import rebuilds the same membership from the immutable runs. *)
  let t' = Spill_store.import ~dir ~threshold:16 image in
  for i = 0 to 99 do
    check "imported mem" true (Spill_store.mem t' (key i))
  done;
  check_int "imported total" 100 (Spill_store.total t');
  Spill_store.close t';
  (* A bit flip in any run file is a loud [Corrupt], not wrong answers. *)
  let run =
    List.find
      (fun f -> Filename.check_suffix f ".spill")
      (Array.to_list (Sys.readdir dir))
  in
  let path = Filename.concat dir run in
  let content = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string content in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Out_channel.with_open_bin path (fun oc -> output_bytes oc b);
  (match Spill_store.import ~dir ~threshold:16 image with
  | exception Spill_store.Corrupt _ -> ()
  | t ->
      Spill_store.close t;
      Alcotest.fail "corrupted run file accepted");
  Spill_store.remove_dir dir

let test_spill_stays_complete () =
  (* Memory pressure spills to disk and stays [Complete], with or
     without a spill directory: same outcomes as the exact sweep and
     nonzero run files. *)
  List.iter
    (fun ((mname, tname), spill_dir) ->
      let m = Option.get (Machines.find mname) in
      let prog = prog_of tname in
      let label what =
        Printf.sprintf "%s/%s (%s) %s" mname tname
          (if spill_dir = None then "private dir" else "--spill-dir")
          what
      in
      let exact = Machines.outcomes m prog in
      let run () =
        explore_with ~sym:false ?spill_dir
          ~budget:(Budget.create ~mem_bytes:512 ())
          m prog
      in
      let r, _ =
        if spill_dir = None then with_fresh_temp_dir (label "run") run
        else run ()
      in
      check (label "is Complete") true
        (Explore.is_complete r.Explore.result);
      check (label "runs spilled") true
        (r.Explore.stats.Explore.spilled_runs > 0);
      check (label "keys on disk") true
        (r.Explore.stats.Explore.spilled_keys > 0);
      check (label "outcomes == exact") true
        (set_eq (Explore.bounded_value r.Explore.result) exact);
      Option.iter Spill_store.remove_dir spill_dir)
    (List.concat_map
       (fun p -> [ (p, Some (tmp_dir ())); (p, None) ])
       [ ("def2", "iriw"); ("wbuf", "dekker") ])

let test_parallel_budget_spills () =
  (* The parallel engine honours a memory budget the same way: with no
     spill directory it spills into a private one and stays [Complete]
     rather than stopping. *)
  let m = Machines.def2 and prog = prog_of "iriw" in
  with_fresh_temp_dir "parallel" @@ fun () ->
  let r, _ =
    explore_with ~sym:false ~domains:2 ~adaptive:false ~budget:tiny_mem m prog
  in
  check "parallel budgeted run not stopped" true (r.Explore.stop = None);
  check "parallel budgeted run is Complete" true
    (Explore.is_complete r.Explore.result);
  check "parallel budgeted run spilled" true
    (r.Explore.stats.Explore.spilled_runs > 0);
  check "parallel budgeted outcomes == exact" true
    (set_eq (Explore.bounded_value r.Explore.result) (Machines.outcomes m prog))

let test_spill_snapshot_resume () =
  let m = Machines.def2 and prog = prog_of "iriw" in
  let full = Machines.outcomes m prog in
  let budget () = Budget.create ~mem_bytes:512 () in
  let dir = tmp_dir () in
  let uninterrupted, _ =
    explore_with ~sym:false ~spill_dir:dir ~budget:(budget ()) m prog
  in
  let total_states =
    uninterrupted.Explore.stats.Explore.states_expanded
  in
  (* Stop a spilling sweep mid-way; the snapshot names the immutable runs
     and the resume re-opens exactly them. *)
  let dir2 = tmp_dir () in
  let stopped, snap =
    explore_with ~sym:false ~spill_dir:dir2 ~budget:(budget ())
      ~fuel:(max 1 (total_states / 2))
      m prog
  in
  check "spilling run stops on fuel" true
    (stopped.Explore.stop = Some Explore.Fuel_exhausted);
  let snap = Option.get snap in
  let resumed, _ =
    explore_with ~sym:false ~spill_dir:dir2 ~budget:(budget ()) ~resume:snap
      m prog
  in
  check "spill resume completes" true
    (Explore.is_complete resumed.Explore.result);
  check "spill resume outcomes == uninterrupted" true
    (set_eq (Explore.bounded_value resumed.Explore.result) full);
  check_int "spill resume total states == uninterrupted" total_states
    resumed.Explore.stats.Explore.states_expanded;
  (* The snapshot is useless without its store: rejected, never silently
     re-explored with partial memory. *)
  (match explore_with ~sym:false ~resume:snap m prog with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "spill snapshot resumed without its spill dir");
  List.iter Spill_store.remove_dir [ dir; dir2 ]

(* --- explore: snapshot/resume with reduction enabled ------------------------- *)

(* Reduction changes what a snapshot must carry (per-state sleep sets);
   resume must reproduce the uninterrupted reduced run exactly — same
   outcome set, same total states — and a snapshot taken under one
   reduction setting must be rejected under the other, never silently
   reinterpreted. *)
let big3 =
  Litmus_parse.parse_string
    "name big3\n\
     { x=0; y=0; z=0 }\n\
     P0          | P1          | P2          ;\n\
     W x 1       | W y 1       | W z 1       ;\n\
     r0 := R y   | r3 := R z   | r6 := R x   ;\n\
     W x 2       | W y 2       | W z 2       ;\n\
     r1 := R z   | r4 := R x   | r7 := R y   ;\n\
     exists (0:r0=0)\n"

let test_reduced_snapshot_resume () =
  let m = Machines.def2 in
  let full = Machines.explore m big3 in
  check "reduction engaged" true full.Explore.stats.Explore.por_enabled;
  let full_set = Explore.bounded_value full.Explore.result in
  let full_states = full.Explore.stats.Explore.states_expanded in
  let stopped, snap = explore_with ~fuel:(max 1 (full_states / 3)) m big3 in
  check "reduced run stops on fuel" true
    (stopped.Explore.stop = Some Explore.Fuel_exhausted);
  let snap = Option.get snap in
  let resumed, _ = explore_with ~resume:snap m big3 in
  check "reduced resume completes" true
    (Explore.is_complete resumed.Explore.result);
  check "reduced resume matches uninterrupted set" true
    (set_eq (Explore.bounded_value resumed.Explore.result) full_set);
  Alcotest.(check int)
    "reduced resume expands the same total states" full_states
    resumed.Explore.stats.Explore.states_expanded;
  (* A reduced snapshot under --no-por (and vice versa) is a different
     sweep: rejected loudly. *)
  (match explore_with ~resume:snap ~reduce:false m big3 with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "reduced snapshot accepted by an unreduced run");
  let stopped_un, snap_un =
    explore_with ~reduce:false ~fuel:(max 1 (full_states / 3)) m big3
  in
  check "unreduced run stops on fuel" true
    (stopped_un.Explore.stop = Some Explore.Fuel_exhausted);
  match explore_with ~resume:(Option.get snap_un) m big3 with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail "unreduced snapshot accepted by a reduced run"

(* --- explore: parallel budgets ---------------------------------------------- *)

let test_parallel_stop_and_resume () =
  let m = Machines.def2 and prog = prog_of "dekker" in
  let full = Machines.outcomes m prog in
  let states =
    (Machines.explore m prog).Explore.stats.Explore.states_expanded
  in
  let stopped, snap =
    explore_with ~domains:4 ~fuel:(max 1 (states / 3)) m prog
  in
  check "parallel stops on fuel" true
    (stopped.Explore.stop = Some Explore.Fuel_exhausted);
  check "parallel partial is subset" true
    (Final.Set.subset (Explore.bounded_value stopped.Explore.result) full);
  let resumed, _ = explore_with ~resume:(Option.get snap) ~domains:4 m prog in
  check "parallel resume completes" true
    (Explore.is_complete resumed.Explore.result);
  check "parallel resume matches full" true
    (set_eq (Explore.bounded_value resumed.Explore.result) full)

(* --- explore: events land in the obs layer ---------------------------------- *)

let test_obs_events () =
  let m = Machines.def2 and prog = prog_of "dekker" in
  let obs = Obs.create () in
  let rcfg =
    {
      Explore.rcfg_default with
      Explore.budget = Some tiny_mem;
      checkpoint_every = 10;
      snapshot_sink = Some (fun _ -> ());
      obs;
    }
  in
  ignore (Machines.explore ~rcfg m prog);
  let names =
    List.filter_map
      (fun e ->
        if String.equal e.Obs.cat "explore" then Some e.Obs.name else None)
      (Obs.events obs)
  in
  check "spill event recorded" true (List.mem "spill" names);
  check "checkpoint event recorded" true (List.mem "checkpoint" names)

(* --- budgeted SC ------------------------------------------------------------- *)

let test_sc_within_budget () =
  let prog = prog_of "iriw" in
  let full = Sc.outcomes prog in
  let within budget =
    let r =
      Machines.explore
        ~rcfg:{ Explore.rcfg_default with Explore.budget = Some budget }
        Machines.sc prog
    in
    (Explore.bounded_value r.Explore.result, Explore.is_complete r.Explore.result)
  in
  let set, complete = within Budget.unlimited in
  check "unlimited budget completes" true complete;
  check "unlimited budget equals full" true (set_eq set full);
  let set0, complete0 = within (expired_budget ()) in
  check "expired budget is partial" false complete0;
  check "partial SC is sound subset" true (Final.Set.subset set0 full)

(* --- verify_machine: suspend / resume --------------------------------------- *)

let verify_suspend_resume machine =
  let model = Weak_ordering.drf0 in
  let label what = Machines.name machine ^ ": " ^ what in
  let small_corpus =
    List.filter
      (fun p ->
        List.mem (Prog.name p) [ "dekker"; "mp_sync"; "iriw"; "lb"; "corr" ])
      corpus
  in
  let uninterrupted =
    Weak_ordering.verify_machine ~machine ~model small_corpus
  in
  check (label "uninterrupted not suspended") true
    (uninterrupted.Weak_ordering.suspended = None);
  let path = tmp_path ".ckpt" in
  (* An already-expired deadline: suspends before the first program with a
     checkpoint at position 0. *)
  let r0 =
    Weak_ordering.verify_machine ~budget:(expired_budget ()) ~checkpoint:path
      ~machine ~model small_corpus
  in
  check (label "suspended") true (r0.Weak_ordering.suspended <> None);
  check_int (label "no verdicts yet") 0
    (List.length r0.Weak_ordering.report.Weak_ordering.verdicts);
  (* Resume without the budget: finishes, verdicts equal uninterrupted. *)
  let r1 =
    Weak_ordering.verify_machine ~resume:path ~checkpoint:path ~machine ~model
      small_corpus
  in
  check (label "resumed run completes") true (r1.Weak_ordering.suspended = None);
  Alcotest.(check (list (pair bool bool)))
    (label "resumed verdicts == uninterrupted")
    (List.map
       (fun v -> (v.Weak_ordering.ok, v.Weak_ordering.sc_appearance))
       uninterrupted.Weak_ordering.report.Weak_ordering.verdicts)
    (List.map
       (fun v -> (v.Weak_ordering.ok, v.Weak_ordering.sc_appearance))
       r1.Weak_ordering.report.Weak_ordering.verdicts);
  Alcotest.(check (list int))
    (label "resumed state counts == uninterrupted")
    (List.map
       (fun v -> v.Weak_ordering.states)
       uninterrupted.Weak_ordering.report.Weak_ordering.verdicts)
    (List.map
       (fun v -> v.Weak_ordering.states)
       r1.Weak_ordering.report.Weak_ordering.verdicts);
  (* Identity validation: the checkpoint (now at end-of-corpus) names this
     machine/model/corpus; a different machine must be rejected. *)
  (match
     Weak_ordering.verify_machine ~resume:path ~machine:Machines.wbuf ~model
       small_corpus
   with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail (label "checkpoint resumed under the wrong machine"));
  (* Corrupt checkpoint with corrupt .prev: loud rejection. *)
  Out_channel.with_open_bin path (fun oc -> output_string oc "smashed");
  (try Sys.remove (Snapshot.prev_path path) with Sys_error _ -> ());
  (match
     Weak_ordering.verify_machine ~resume:path ~machine ~model small_corpus
   with
  | exception Explore.Resume_rejected _ -> ()
  | _ -> Alcotest.fail (label "corrupt checkpoint accepted"));
  try Sys.remove path with Sys_error _ -> ()

let test_verify_machine_suspend_resume () =
  List.iter verify_suspend_resume [ Machines.def2; Machines.sc ]

let test_verify_machine_mem_budget_is_exhaustive () =
  let machine = Machines.def2 and model = Weak_ordering.drf0 in
  let small_corpus =
    List.filter (fun p -> List.mem (Prog.name p) [ "dekker"; "mp" ]) corpus
  in
  let exact = Weak_ordering.verify_machine ~machine ~model small_corpus in
  let r =
    Weak_ordering.verify_machine ~budget:(Budget.create ~mem_bytes:512 ())
      ~machine ~model small_corpus
  in
  check "campaign completes" true (r.Weak_ordering.suspended = None);
  List.iter2
    (fun e v ->
      let name = Prog.name v.Weak_ordering.program in
      check (name ^ " exhaustive coverage") true
        (v.Weak_ordering.coverage = Weak_ordering.Exhaustive);
      check (name ^ " spilled") true (v.Weak_ordering.spilled_runs > 0);
      check (name ^ " verdict == unbudgeted") true
        (v.Weak_ordering.ok = e.Weak_ordering.ok
        && v.Weak_ordering.sc_appearance = e.Weak_ordering.sc_appearance))
    exact.Weak_ordering.report.Weak_ordering.verdicts
    r.Weak_ordering.report.Weak_ordering.verdicts;
  check "report exhaustive" true
    (Weak_ordering.report_exhaustive r.Weak_ordering.report)

(* Under a checkpoint a memory budget spills next to it: a suspended
   campaign resumes from the runs in [CHECKPOINT.spill] and ends equal to
   an uninterrupted budgeted run. *)
let test_verify_machine_spill_beside_checkpoint () =
  let machine = Machines.def2 and model = Weak_ordering.drf0 in
  let small_corpus =
    List.filter (fun p -> List.mem (Prog.name p) [ "dekker"; "iriw" ]) corpus
  in
  let mem_only () = Budget.create ~mem_bytes:512 () in
  let summary r =
    List.map
      (fun v ->
        ( (v.Weak_ordering.ok, v.Weak_ordering.sc_appearance),
          (v.Weak_ordering.states, v.Weak_ordering.spilled_runs) ))
      r.Weak_ordering.report.Weak_ordering.verdicts
  in
  let verdicts = Alcotest.(list (pair (pair bool bool) (pair int int))) in
  let uninterrupted =
    Weak_ordering.verify_machine ~budget:(mem_only ()) ~machine ~model
      small_corpus
  in
  let path = tmp_path ".ckpt" in
  let spill = path ^ ".spill" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; Snapshot.prev_path path ];
    Spill_store.remove_dir spill
  in
  (* Deadline 0: suspends before the first program is expanded. *)
  let b0 = Budget.create ~deadline_s:0. ~mem_bytes:512 () in
  Unix.sleepf 0.002;
  let r0 =
    Weak_ordering.verify_machine ~budget:b0 ~checkpoint:path ~machine ~model
      small_corpus
  in
  check "deadline suspends" true
    (r0.Weak_ordering.suspended = Some Explore.Deadline_exceeded);
  check "spill dir beside the checkpoint" true (Sys.is_directory spill);
  let r1 =
    Weak_ordering.verify_machine ~budget:(mem_only ()) ~resume:path
      ~checkpoint:path ~machine ~model small_corpus
  in
  check "resumed run completes" true (r1.Weak_ordering.suspended = None);
  Alcotest.check verdicts "deadline resume == uninterrupted"
    (summary uninterrupted) (summary r1);
  cleanup ();
  (* Fuel: suspends mid-program with runs already on disk; the resume
     must re-open exactly those runs. *)
  let iriw_states =
    match summary uninterrupted with
    | [ _; (_, (n, _)) ] -> n
    | _ -> Alcotest.fail "unexpected corpus"
  in
  let r2 =
    Weak_ordering.verify_machine ~budget:(mem_only ())
      ~fuel:(iriw_states / 2) ~checkpoint:path ~machine ~model small_corpus
  in
  check "fuel suspends" true
    (r2.Weak_ordering.suspended = Some Explore.Fuel_exhausted);
  check "runs on disk at the stop" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".spill")
       (Sys.readdir spill));
  let r3 =
    Weak_ordering.verify_machine ~budget:(mem_only ()) ~resume:path
      ~checkpoint:path ~machine ~model small_corpus
  in
  check "fuel-resumed run completes" true (r3.Weak_ordering.suspended = None);
  Alcotest.check verdicts "fuel resume == uninterrupted"
    (summary uninterrupted) (summary r3);
  cleanup ()

(* --- sim: the watchdog hook ------------------------------------------------- *)

let test_on_wedged_hook () =
  (* A 1-cycle limit wedges any real workload: the hook must fire with the
     diagnostic before Wedged unwinds. *)
  let fired = ref None in
  (match
     Sim_run.run ~limit:1
       ~on_wedged:(fun d -> fired := Some d)
       Cpu.Def2 (Workload.fig3_handoff ())
   with
  | exception Sim_run.Wedged _ -> ()
  | _ -> Alcotest.fail "1-cycle limit did not wedge");
  match !fired with
  | Some d -> check "diagnostic mentions livelock" true (String.length d > 0)
  | None -> Alcotest.fail "on_wedged never fired"

let suite =
  ( "resilience",
    [
      Alcotest.test_case "crc32 known answers" `Quick test_crc32;
      Alcotest.test_case "atomic file install" `Quick test_atomic_io;
      Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "snapshot rejects corruption/skew" `Quick
        test_snapshot_rejects_corruption;
      Alcotest.test_case "snapshot .prev generation" `Quick
        test_snapshot_prev_generation;
      Alcotest.test_case "bloom filter" `Quick test_bloom;
      Alcotest.test_case "budgets" `Quick test_budget;
      Alcotest.test_case "explore resume == uninterrupted" `Quick
        test_explore_resume_equals_uninterrupted;
      Alcotest.test_case "explore deadline stop" `Quick
        test_explore_deadline_stop;
      Alcotest.test_case "explore resume rejects mismatch" `Quick
        test_explore_resume_rejects_mismatch;
      Alcotest.test_case "explore4 snapshot rejected by kind" `Quick
        test_old_snapshot_kind_rejected;
      Alcotest.test_case "tiny budget spills exactly" `Quick
        test_tiny_budget_spills_exactly;
      Alcotest.test_case "spill store unit" `Quick test_spill_store_unit;
      Alcotest.test_case "spill stays Complete under memory pressure" `Quick
        test_spill_stays_complete;
      Alcotest.test_case "parallel budget spills" `Quick
        test_parallel_budget_spills;
      Alcotest.test_case "spill snapshot resume" `Quick
        test_spill_snapshot_resume;
      Alcotest.test_case "reduced snapshot resume" `Quick
        test_reduced_snapshot_resume;
      Alcotest.test_case "parallel stop and resume" `Quick
        test_parallel_stop_and_resume;
      Alcotest.test_case "explore events in obs" `Quick test_obs_events;
      Alcotest.test_case "budgeted SC enumeration" `Quick test_sc_within_budget;
      Alcotest.test_case "verify_machine suspend/resume" `Quick
        test_verify_machine_suspend_resume;
      Alcotest.test_case "verify_machine mem budget" `Quick
        test_verify_machine_mem_budget_is_exhaustive;
      Alcotest.test_case "verify_machine spills beside checkpoint" `Quick
        test_verify_machine_spill_beside_checkpoint;
      Alcotest.test_case "watchdog on_wedged hook" `Quick test_on_wedged_hook;
    ] )
