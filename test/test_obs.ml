(* Tests for the observability layer: the ring tracer, stall accounting,
   histograms, the Chrome exporter (validity + golden trace), and the
   metrics the exploration engine and SC enumerator feed it. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* --- ring tracer ------------------------------------------------------------ *)

let test_ring_basics () =
  let t = Obs.create ~capacity:4 () in
  check "enabled" true (Obs.enabled t);
  check_int "capacity" 4 (Obs.capacity t);
  check_int "empty" 0 (Obs.recorded t);
  Obs.instant t ~cat:"op" ~name:"a" ~tid:0 ~ts:1 ~loc:"" ~cause:"";
  Obs.span t ~cat:"op" ~name:"b" ~tid:1 ~ts:2 ~dur:5 ~loc:"x" ~cause:"";
  Obs.counter t ~cat:"proto" ~name:"c" ~tid:0 ~ts:3 ~value:7;
  check_int "recorded" 3 (Obs.recorded t);
  check_int "dropped" 0 (Obs.dropped t);
  (match Obs.events t with
  | [ a; b; c ] ->
      check_str "first name" "a" a.Obs.name;
      check_int "span dur" 5 b.Obs.dur;
      check_int "counter value" 7 c.Obs.value
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
  Obs.clear t;
  check_int "cleared" 0 (Obs.recorded t);
  check_int "no events after clear" 0 (List.length (Obs.events t))

let test_ring_wrap () =
  let t = Obs.create ~capacity:3 () in
  for i = 1 to 5 do
    Obs.instant t ~cat:"op" ~name:(string_of_int i) ~tid:0 ~ts:i ~loc:""
      ~cause:""
  done;
  check_int "recorded counts overwrites" 5 (Obs.recorded t);
  check_int "dropped = recorded - capacity" 2 (Obs.dropped t);
  Alcotest.(check (list string))
    "oldest first, oldest two gone" [ "3"; "4"; "5" ]
    (List.map (fun e -> e.Obs.name) (Obs.events t))

let test_events_are_copies () =
  let t = Obs.create ~capacity:2 () in
  Obs.instant t ~cat:"op" ~name:"keep" ~tid:0 ~ts:1 ~loc:"" ~cause:"";
  let before = Obs.events t in
  (* Overwrite the slot the first event lived in. *)
  Obs.instant t ~cat:"op" ~name:"x" ~tid:0 ~ts:2 ~loc:"" ~cause:"";
  Obs.instant t ~cat:"op" ~name:"y" ~tid:0 ~ts:3 ~loc:"" ~cause:"";
  check_str "snapshot survives ring reuse" "keep"
    (List.hd before).Obs.name

let test_null_tracer () =
  check "null disabled" false (Obs.enabled Obs.null);
  (* Recording into the null tracer must be a no-op, not an error. *)
  Obs.span Obs.null ~cat:"op" ~name:"n" ~tid:0 ~ts:0 ~dur:1 ~loc:"" ~cause:"";
  Obs.instant Obs.null ~cat:"op" ~name:"n" ~tid:0 ~ts:0 ~loc:"" ~cause:"";
  Obs.counter Obs.null ~cat:"op" ~name:"n" ~tid:0 ~ts:0 ~value:1;
  check_int "null records nothing" 0 (Obs.recorded Obs.null);
  check_int "null holds nothing" 0 (List.length (Obs.events Obs.null))

(* --- stall accounting -------------------------------------------------------- *)

let test_stall_table () =
  let s = Obs.Stall.create () in
  Obs.Stall.add s ~tid:0 ~cause:"gp-wait" ~loc:"s" ~cycles:10;
  Obs.Stall.add s ~tid:0 ~cause:"gp-wait" ~loc:"s" ~cycles:5;
  Obs.Stall.add s ~tid:1 ~cause:"read-miss" ~loc:"x" ~cycles:3;
  Obs.Stall.add s ~tid:0 ~cause:"gp-wait" ~loc:"s" ~cycles:0;
  Obs.Stall.add s ~tid:0 ~cause:"gp-wait" ~loc:"s" ~cycles:(-4);
  check_int "accumulates" 15 (Obs.Stall.get s ~tid:0 ~cause:"gp-wait" ~loc:"s");
  check_int "absent key" 0 (Obs.Stall.get s ~tid:9 ~cause:"gp-wait" ~loc:"s");
  check_int "total" 18 (Obs.Stall.total s);
  check_int "total by proc" 15 (Obs.Stall.total ~tid:0 s);
  check_int "total by cause" 3 (Obs.Stall.total ~cause:"read-miss" s);
  check_int "total by loc" 15 (Obs.Stall.total ~loc:"s" s);
  Alcotest.(check (list (pair int (pair string (pair string int)))))
    "rows sorted"
    [ (0, ("gp-wait", ("s", 15))); (1, ("read-miss", ("x", 3))) ]
    (List.map
       (fun (t, c, l, n) -> (t, (c, (l, n))))
       (Obs.Stall.rows s))

(* --- histograms -------------------------------------------------------------- *)

let test_hist () =
  let h = Obs.Hist.create () in
  check_int "empty count" 0 (Obs.Hist.count h);
  List.iter (Obs.Hist.add h) [ 0; 1; 2; 3; 4; 9 ];
  check_int "count" 6 (Obs.Hist.count h);
  check_int "max" 9 (Obs.Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" (19. /. 6.) (Obs.Hist.mean h);
  (* 0,1 -> bucket <=1; 2 -> <=2; 3,4 -> <=4; 9 -> <=16 *)
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets"
    [ (1, 2); (2, 1); (4, 2); (16, 1) ]
    (Obs.Hist.buckets h)

(* --- Chrome exporter --------------------------------------------------------- *)

(* A minimal JSON validity checker: enough of a recursive-descent parser to
   reject structural breakage (unbalanced brackets, broken escapes, bare
   strings) without an external dependency. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then incr pos else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> str ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some ('t' | 'f' | 'n') -> literal ()
      | _ -> fail := true
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let continue = ref true in
      while !continue && not !fail do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            continue := false
        | _ -> fail := true
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let continue = ref true in
      while !continue && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            continue := false
        | _ -> fail := true
      done
    end
  and str () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' | 'u') ->
              incr pos
          | _ -> fail := true)
      | Some '"' ->
          incr pos;
          closed := true
      | Some _ -> incr pos
    done
  and number () =
    while
      !pos < n
      && (match s.[!pos] with
         | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
         | _ -> false)
    do
      incr pos
    done
  and literal () =
    List.iter expect
      (match peek () with
      | Some 't' -> [ 't'; 'r'; 'u'; 'e' ]
      | Some 'f' -> [ 'f'; 'a'; 'l'; 's'; 'e' ]
      | _ -> [ 'n'; 'u'; 'l'; 'l' ])
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_checker_sane () =
  check "accepts object" true (json_valid {|{"a": [1, 2], "b": "x\"y"}|});
  check "rejects unbalanced" false (json_valid {|{"a": [1, 2}|});
  check "rejects trailing" false (json_valid {|{} junk|});
  check "rejects bad escape" false (json_valid {|{"a": "\q"}|})

let test_chrome_valid_json () =
  let t = Obs.create ~capacity:64 () in
  Obs.span t ~cat:"op" ~name:"W\"tricky\\" ~tid:0 ~ts:10 ~dur:4 ~loc:"x"
    ~cause:"gp-wait";
  Obs.instant t ~cat:"fault" ~name:"drop" ~tid:0 ~ts:12 ~loc:"1->0" ~cause:"injected";
  Obs.counter t ~cat:"proto" ~name:"outstanding" ~tid:1 ~ts:11 ~value:3;
  let doc = Obs.Chrome.to_string t in
  check "valid JSON" true (json_valid doc);
  check "has traceEvents" true (contains ~sub:"\"traceEvents\"" doc);
  let norm = Obs.Chrome.to_string ~normalize:true t in
  check "normalized still valid" true (json_valid norm);
  check "normalized starts at ts 0" true (contains ~sub:"\"ts\":0" norm)

let test_chrome_empty () =
  let t = Obs.create ~capacity:4 () in
  check "empty trace is valid JSON" true (json_valid (Obs.Chrome.to_string t))

(* --- golden trace ------------------------------------------------------------ *)

let dekker = (Option.get (Litmus_classics.find "dekker")).Litmus_classics.prog

let trace_dekker () =
  let obs = Obs.create () in
  ignore (Sim_litmus.run ~obs Cpu.Def2 dekker);
  Obs.Chrome.to_string ~normalize:true obs

(* [dune runtest] runs with the test directory as cwd; a bare [dune exec]
   from the project root does not — accept either. *)
let read_file path =
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_trace () =
  (* The simulator is deterministic, so the normalized Chrome export of a
     fixed run is byte-stable.  If an intentional change to the
     instrumentation or the simulator alters it, regenerate with:
       weakord trace dekker -m def2 --normalize -o \
         test/golden/dekker_def2.trace.json *)
  let golden = read_file "golden/dekker_def2.trace.json" in
  check_str "byte-identical to committed golden trace" golden (trace_dekker ())

let test_trace_deterministic () =
  check_str "two runs, one trace" (trace_dekker ()) (trace_dekker ())

(* --- sim timing-fingerprint goldens ------------------------------------------ *)

(* The gate for timing-invisible engine optimizations (heap queue, batched
   delivery, spin parking): every workload's normalized trace, stall table,
   final memory image and cycle count must stay byte-identical.  Regenerate
   a fingerprint after an intentional timing change with:
     weakord sim -w <name> -p <policy> --golden test/golden/sim_<name>_<policy>.golden *)
let sim_golden_cases =
  [
    ("fig3", fun () -> Workload.fig3_handoff ());
    ("barrier", fun () -> Workload.spin_barrier ());
    ("locks", fun () -> Workload.critical_sections ());
    ("pipeline", fun () -> Workload.pipeline ());
    ("ticket", fun () -> Workload.ticket_lock ());
    ("sense-barrier", fun () -> Workload.sense_barrier ());
  ]

let test_sim_goldens () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun policy ->
          let obs = Obs.create () in
          let cfg = Sim_config.make () in
          let r = Sim_run.run ~cfg ~obs policy (gen ()) in
          let got = Sim_run.golden_artifact ~obs r in
          let golden =
            read_file
              (Printf.sprintf "golden/sim_%s_%s.golden" name
                 (Cpu.policy_name policy))
          in
          check_str
            (Printf.sprintf "%s under %s matches committed fingerprint" name
               (Cpu.policy_name policy))
            golden got)
        [ Cpu.Def1; Cpu.Def2 ])
    sim_golden_cases

(* --- simulator stall attribution --------------------------------------------- *)

(* The Figure 3 claim as a regression test: def1 charges P0 ordering stalls
   (counter drain, then global-performance wait) at the Unset of [s]; def2
   charges P0 zero there and shifts the wait to P1 as a reserve-bit
   deferral. *)
let test_fig3_stall_attribution () =
  let stalls policy =
    (Sim_run.run policy (Workload.fig3_handoff ())).Sim_run.stalls
  in
  let d1 = stalls Cpu.Def1 and d2 = stalls Cpu.Def2 in
  let p0_ordering s =
    Obs.Stall.get s ~tid:0 ~cause:Cpu.cause_counter ~loc:"s"
    + Obs.Stall.get s ~tid:0 ~cause:Cpu.cause_gp ~loc:"s"
  in
  check "def1 stalls P0 at the Unset" true (p0_ordering d1 > 0);
  check_int "def2 never stalls P0 at the Unset" 0 (p0_ordering d2);
  check "def2 shifts the wait to P1 (reserve bit)" true
    (Obs.Stall.get d2 ~tid:1 ~cause:Proto.cause_reserve ~loc:"s" > 0);
  (* The table agrees with the aggregate counters the run already kept. *)
  let r = Sim_run.run Cpu.Def1 (Workload.fig3_handoff ()) in
  check_int "stall table matches proc_stats aggregate"
    (r.Sim_run.proc_stats.(0).Cpu.stall_pre_sync
    + r.Sim_run.proc_stats.(0).Cpu.stall_sync_gp)
    (p0_ordering d1)

(* --- exploration metrics ------------------------------------------------------ *)

(* The per-shard claim counts must be consistent with the totals, and the
   totals must agree between the sequential and the parallel engine: every
   distinct state is claimed exactly once, wherever it lands. *)
let test_explore_metrics_consistent () =
  List.iter
    (fun domains ->
      let r = Machines.explore ~domains Machines.def2 dekker in
      let s = r.Explore.stats in
      check_int
        (Printf.sprintf "domains=%d: per-shard claims sum to claimed" domains)
        s.Explore.claimed
        (Array.fold_left ( + ) 0 s.Explore.claimed_per_shard);
      check_int
        (Printf.sprintf "domains=%d: claimed = states expanded" domains)
        s.Explore.states_expanded s.Explore.claimed;
      check
        (Printf.sprintf "domains=%d: table stats populated" domains)
        true
        (s.Explore.table_buckets > 0 && s.Explore.max_probe >= 0))
    [ 1; 4 ];
  let states d =
    (Machines.explore ~domains:d Machines.def2 dekker).Explore.stats
      .Explore.states_expanded
  in
  check_int "same state count at 1 and 4 domains" (states 1) (states 4)

let test_por_counters () =
  (* mp_sync has data accesses private enough for the reduction to fire. *)
  let prog = (Option.get (Litmus_classics.find "mp_sync")).Litmus_classics.prog in
  let explore reduce =
    let r = Machines.explore ~reduce ~por_min_instrs:0 Machines.sc prog in
    (Explore.bounded_value r.Explore.result, r.Explore.stats)
  in
  let set_r, st_r = explore true in
  let set_f, st_f = explore false in
  let declined s = s.Explore.oracle_calls - s.Explore.ample_hits in
  check "reduction fired" true (st_r.Explore.ample_hits > 0);
  check "declined counted" true (declined st_r > 0);
  check_int "no reduction, none taken" 0 st_f.Explore.ample_hits;
  check_int "no reduction, none declined" 0 (declined st_f);
  check "same outcomes either way" true (Final.Set.equal set_r set_f)

(* --- gauges -------------------------------------------------------------------- *)

let test_gauge () =
  let g = Obs.Gauge.create () in
  check_int "starts at zero" 0 (Obs.Gauge.current g);
  check_int "no samples yet" 0 (Obs.Gauge.samples g);
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Obs.Gauge.decr g;
  check_int "incr/decr track the level" 2 (Obs.Gauge.current g);
  check_int "max is the high-water mark" 3 (Obs.Gauge.max_level g);
  (* samples: 0->1->2->3->2, mean = (1+2+3+2)/4 = 2.0 *)
  check_int "each transition sampled" 4 (Obs.Gauge.samples g);
  Alcotest.(check (float 1e-9)) "mean over samples" 2.0 (Obs.Gauge.mean g);
  Obs.Gauge.set g (-5);
  check_int "set clamps below zero" 0 (Obs.Gauge.current g);
  check_int "max survives the clamp" 3 (Obs.Gauge.max_level g)

(* --- fault window ------------------------------------------------------------- *)

let test_fault_events_and_window () =
  (* Under an aggressive profile the interconnect must mark injected faults
     in the trace, and the window formatter must show only nearby events. *)
  let obs = Obs.create () in
  let cfg =
    Sim_config.make ~faults:Fault.chaos ~fault_seed:3 ()
  in
  (match Sim_litmus.try_run ~cfg ~obs Cpu.Def2 dekker with
  | Ok _ | Error _ -> ());
  let faults =
    List.filter (fun e -> e.Obs.cat = "fault") (Obs.events obs)
  in
  check "injected faults are traced" true (faults <> []);
  let f = List.hd faults in
  let rendered =
    Fmt.str "%a" (fun ppf -> Obs.pp_window ppf ~around:f.Obs.ts ~radius:25) obs
  in
  check "window mentions the fault" true (contains ~sub:f.Obs.name rendered)

let suite =
  ( "obs",
    [
      Alcotest.test_case "ring basics" `Quick test_ring_basics;
      Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
      Alcotest.test_case "events are copies" `Quick test_events_are_copies;
      Alcotest.test_case "null tracer" `Quick test_null_tracer;
      Alcotest.test_case "stall table" `Quick test_stall_table;
      Alcotest.test_case "histogram" `Quick test_hist;
      Alcotest.test_case "json checker sane" `Quick test_json_checker_sane;
      Alcotest.test_case "chrome export is valid json" `Quick
        test_chrome_valid_json;
      Alcotest.test_case "chrome export of empty trace" `Quick
        test_chrome_empty;
      Alcotest.test_case "golden trace (dekker/def2)" `Quick test_golden_trace;
      Alcotest.test_case "trace deterministic" `Quick test_trace_deterministic;
      Alcotest.test_case "sim timing fingerprints match goldens" `Quick
        test_sim_goldens;
      Alcotest.test_case "fig3 stall attribution" `Quick
        test_fig3_stall_attribution;
      Alcotest.test_case "explore metrics consistent" `Quick
        test_explore_metrics_consistent;
      Alcotest.test_case "por counters" `Quick test_por_counters;
      Alcotest.test_case "gauge levels and means" `Quick test_gauge;
      Alcotest.test_case "fault events and window" `Quick
        test_fault_events_and_window;
    ] )
