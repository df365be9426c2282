(* weakord: command-line front end.

   - run:    execute a litmus test on the reference SC machine, the
             abstract hardware machines, and the axiomatic models
   - races:  DRF0/DRF1 analysis with witnesses
   - verify: Definition 2 over the built-in corpus (or given files)
   - sim:    timing simulation of the paper's workloads
   - trace:  run a litmus test on the simulator and export the structured
             event trace (Chrome trace_event JSON / summary table)
   - faults: seeded fault-injection campaigns on the protocol simulator
   - gen:    emit the litmus source for a generator seed (the
             reproduction half of the batch service's determinism
             contract)
   - batch:  the supervised batch verification service — a job file
             fanned out across forked workers with timeouts, retry,
             quarantine, a persistent verdict cache and drain/resume
   - serve:  the batch machinery as a long-lived daemon — many clients
             over a Unix-domain socket, per-client fair scheduling, one
             shared verdict cache (protocol: docs/PROTOCOL.md)
   - client: stdin-driven protocol client for a running daemon
   - fuzz:   generated corpus through the three-way differential oracle
             (machines vs axiomatic models vs simulator), disagreements
             quarantined with seed-exact repro recipes
   - list:   what is available

   Exit codes: 0 success; 1 a check ran and failed (race, counterexample,
   fault-campaign failure); 2 parse failure, unreadable input, or an
   unusable checkpoint; 3 a budget (deadline, memory, fuel) suspended the
   run cleanly — a checkpoint, when configured, holds the resume point;
   4 a batch completed but quarantined at least one poison job. *)

open Cmdliner

(* --- shared helpers -------------------------------------------------------- *)

(* Parse failures exit 2 with a located, compiler-style report; the
   campaign and verification commands reserve exit 1 for "the check ran
   and failed". *)
let load_prog path =
  try
    if String.equal path "-" then
      Litmus_parse.parse_string (In_channel.input_all In_channel.stdin)
    else Litmus_parse.parse_file path
  with
  | Litmus_parse.Parse_error { line; col; msg } ->
      let file = if String.equal path "-" then "<stdin>" else path in
      Fmt.epr "%s:%d:%d: parse error: %s@." file line col msg;
      exit 2
  | Sys_error e ->
      Fmt.epr "weakord: %s@." e;
      exit 2

let prog_or_classic name_or_path =
  match Litmus_classics.find name_or_path with
  | Some e -> e.Litmus_classics.prog
  | None -> load_prog name_or_path

let corpus = List.map (fun e -> e.Litmus_classics.prog) Litmus_classics.all

let drf_model_conv =
  let parse = function
    | "drf0" -> Ok Drf.DRF0
    | "drf1" -> Ok Drf.DRF1
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (drf0|drf1)" s))
  in
  Arg.conv (parse, Drf.pp_model)

let test_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TEST"
        ~doc:
          "A litmus file, $(b,-) for stdin, or the name of a built-in test \
           (see $(b,weakord list)).")

let jobs_conv =
  let parse = function
    | "auto" -> Ok None
    | s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (Some n)
        | Some n ->
            Error (`Msg (Printf.sprintf "--jobs must be at least 1 (got %d)" n))
        | None ->
            Error
              (`Msg (Printf.sprintf "--jobs expects a count or 'auto', got %S" s)))
  in
  let print ppf = function
    | None -> Fmt.string ppf "auto"
    | Some n -> Fmt.int ppf n
  in
  Arg.conv (parse, print)

let jobs_flag =
  Arg.(
    value
    & opt jobs_conv None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Explore machine state spaces with $(docv) parallel domains, or \
           $(b,auto) (the default) for the recognized core count. The \
           engine falls back to the sequential path when extra domains \
           cannot help (more domains than cores, or a state space too \
           small to spill). The outcome sets are identical for every \
           value.")

(* [auto] asks the runtime how many cores it recognizes; an explicit
   count is taken as given (the engine's adaptive fallback still caps it
   at the recognized cores unless it is disabled). *)
let resolve_jobs = function
  | None -> Domain.recommended_domain_count ()
  | Some n -> n

(* --- resilience flags (verify / faults) ------------------------------------- *)

let deadline_flag =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget. When it runs out the command stops at a \
           safe point, writes a final checkpoint (with $(b,--checkpoint)) \
           and exits 3 instead of being killed mid-sweep.")

let mem_budget_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-budget" ] ~docv:"BYTES"
        ~doc:
          "Memory budget for the exploration visited set. When crossed, \
           the hot tier of the visited set is flushed to CRC-checked \
           immutable runs on disk and the sweep goes on: coverage stays \
           exact. The runs go to $(b,--spill-dir) if given, else next to \
           the checkpoint ($(i,CHECKPOINT).spill) for $(b,verify \
           --checkpoint), else to a private temporary directory that is \
           deleted when the sweep ends.")

let no_sym_flag =
  Arg.(
    value & flag
    & info [ "no-sym" ]
        ~doc:
          "Disable symmetry reduction (exploring modulo the program's \
           processor/location automorphism group). The escape hatch and \
           the differential baseline: outcome sets and verdicts are \
           identical either way, only states expanded changes.")

let spill_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the visited-set runs that $(b,--mem-budget) \
           spills (a hot tier over 65536 keys spills too). Created if \
           missing; stale runs in it are removed. $(b,verify) keeps it \
           after the run, so a checkpoint that names its runs resumes \
           with the same $(b,--spill-dir); $(b,batch) and $(b,serve) \
           give each job attempt its own subdirectory and remove it when \
           the attempt ends.")

let checkpoint_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Keep a crash-safe resume point in $(docv): CRC-checked, \
           written to a temp file and atomically renamed, with the \
           previous generation retained as $(docv).prev.")

let checkpoint_every_flag =
  Arg.(
    value
    & opt int Explore.checkpoint_every_default
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "State expansions between periodic checkpoints (default \
           $(b,1000)); a kill at any moment loses at most that much \
           work.")

let resume_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a checkpoint written by $(b,--checkpoint). The \
           file is validated (CRC, format version, machine/model/corpus \
           identity) and rejected loudly — exit 2 — when unusable; a \
           corrupt primary falls back to $(docv).prev.")

let budget_of ~deadline ~mem =
  match (deadline, mem) with
  | None, None -> None
  | _ -> Some (Budget.create ?deadline_s:deadline ?mem_bytes:mem ())

(* --- run -------------------------------------------------------------------- *)

let run_cmd =
  let machines_flag =
    Arg.(
      value & opt_all string []
      & info [ "m"; "machine" ] ~docv:"NAME"
          ~doc:"Machine(s) to run (default: all). Repeatable.")
  in
  let axiomatic_flag =
    Arg.(value & flag & info [ "axiomatic" ] ~doc:"Also run the axiomatic models.")
  in
  let no_por_flag =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable partial-order reduction everywhere: the SC \
             enumeration and the machines' independence oracles (the \
             escape hatch; every outcome set is identical).")
  in
  let por_stats_flag =
    Arg.(
      value & flag
      & info [ "por-stats" ]
          ~doc:
            "Print each machine's reduction telemetry: states expanded, \
             oracle calls, ample hits, suppressed transitions.")
  in
  let sym_stats_flag =
    Arg.(
      value & flag
      & info [ "sym-stats" ]
          ~doc:
            "Print each machine's symmetry telemetry: automorphism-group \
             order, states expanded, orbit-redirected probes.")
  in
  let action test machine_names axiomatic jobs no_por por_stats no_sym
      sym_stats =
    let jobs = resolve_jobs jobs in
    let prog = prog_or_classic test in
    (match Prog.validate prog with
    | Ok () -> ()
    | Error errs ->
        Fmt.epr "warning: %a@." Fmt.(list ~sep:comma Prog.pp_error) errs);
    Fmt.pr "%a@.@." Prog.pp prog;
    let machines =
      match machine_names with
      | [] -> Machines.all
      | names ->
          List.map
            (fun n ->
              match Machines.find n with
              | Some m -> m
              | None -> Fmt.failwith "unknown machine %S" n)
            names
    in
    let sc = Sc.outcomes ~reduce:(not no_por) prog in
    Fmt.pr "SC outcomes (%d):@.%a@.@." (Final.Set.cardinal sc) Final.pp_set sc;
    let rcfg = { Explore.rcfg_default with Explore.sym = not no_sym } in
    List.iter
      (fun m ->
        let r =
          Machines.explore ~domains:jobs ~reduce:(not no_por) ~rcfg m prog
        in
        let outs = Explore.bounded_value r.Explore.result in
        let extra = Final.Set.diff outs sc in
        Fmt.pr "%-8s %d outcomes%s%s@." (Machines.name m)
          (Final.Set.cardinal outs)
          (if Final.Set.is_empty extra then " (appears SC)"
           else Fmt.str ", %d beyond SC" (Final.Set.cardinal extra))
          (match Machines.allows_exists m prog with
          | Some true -> "; allows 'exists'"
          | Some false -> "; forbids 'exists'"
          | None -> "");
        if por_stats then begin
          let st = r.Explore.stats in
          Fmt.pr "  por: %s, %d state(s), %d oracle call(s), %d ample \
                  hit(s), %d suppressed@."
            (if st.Explore.por_enabled then "on" else "off")
            st.Explore.states_expanded st.Explore.oracle_calls
            st.Explore.ample_hits st.Explore.suppressed
        end;
        if sym_stats then begin
          let st = r.Explore.stats in
          Fmt.pr "  sym: group %d, %d state(s), %d orbit hit(s)@."
            st.Explore.sym_group st.Explore.states_expanded
            st.Explore.sym_hits
        end;
        if not (Final.Set.is_empty extra) then
          Fmt.pr "  non-SC: %a@." Final.pp_set extra)
      machines;
    if axiomatic then begin
      Fmt.pr "@.axiomatic models:@.";
      List.iter
        (fun m ->
          let outs = Models.outcomes m prog in
          Fmt.pr "%-18s %d outcomes%s@." (Models.name m)
            (Final.Set.cardinal outs)
            (match Models.allows_exists m prog with
            | Some true -> "; allows 'exists'"
            | Some false -> "; forbids 'exists'"
            | None -> ""))
        Models.all
    end
  in
  let doc = "run a litmus test on the machines and models" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const action $ test_arg $ machines_flag $ axiomatic_flag $ jobs_flag
      $ no_por_flag $ por_stats_flag $ no_sym_flag $ sym_stats_flag)

(* --- races ------------------------------------------------------------------ *)

let races_cmd =
  let model_flag =
    Arg.(
      value
      & opt drf_model_conv Drf.DRF0
      & info [ "model" ] ~docv:"MODEL" ~doc:"Synchronization model (drf0|drf1).")
  in
  let action test model =
    let prog = prog_or_classic test in
    Fmt.pr "%a@.@." Prog.pp prog;
    match Drf.check ~model prog with
    | Ok () -> Fmt.pr "The program obeys %a: no data races.@." Drf.pp_model model
    | Error races ->
        Fmt.pr "The program violates %a:@.%a@." Drf.pp_model model
          Fmt.(list ~sep:cut Drf.pp_race)
          races;
        exit 1
  in
  let doc = "check a program against DRF0 or DRF1 (Definition 3)" in
  Cmd.v (Cmd.info "races" ~doc) Term.(const action $ test_arg $ model_flag)

(* --- verify ------------------------------------------------------------------ *)

let verify_cmd =
  let machine_flag =
    Arg.(
      value & opt string "def2"
      & info [ "m"; "machine" ] ~docv:"NAME" ~doc:"Machine to verify.")
  in
  let model_flag =
    Arg.(
      value & opt string "drf0"
      & info [ "model" ] ~docv:"MODEL" ~doc:"Synchronization model (drf0|drf1).")
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Litmus files or built-in test names (including the scaling \
             corpus: big3, big4, big5) for the corpus (default: the \
             built-in litmus corpus).")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "After the report, print one telemetry line per verdict: \
             states, symmetry group and orbit hits, spilled runs/keys.")
  in
  let no_por_flag =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable partial-order reduction on both sides: the SC \
             reference enumeration and the machine's oracle (the escape \
             hatch; the verdicts are identical).")
  in
  let fuel_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Expand at most $(docv) distinct states per program (a bound, \
             like the budgets: exhausting it suspends with exit 3). The \
             bound spans resume — a resumed run continues the original \
             budget.")
  in
  let action machine_name model_name files jobs no_por fuel deadline mem
      checkpoint checkpoint_every resume no_sym spill_dir verbose =
    let jobs = resolve_jobs jobs in
    let machine =
      match Machines.find machine_name with
      | Some m -> m
      | None -> Fmt.failwith "unknown machine %S" machine_name
    in
    let model =
      match model_name with
      | "drf0" -> Weak_ordering.drf0
      | "drf1" -> Weak_ordering.drf1
      | "all" -> Weak_ordering.unconstrained
      | s -> Fmt.failwith "unknown model %S (drf0|drf1|all)" s
    in
    let programs =
      match files with [] -> corpus | fs -> List.map prog_or_classic fs
    in
    match
      Weak_ordering.verify_machine ~domains:jobs ?fuel ~por:(not no_por)
        ~sym:(not no_sym) ?spill_dir
        ?budget:(budget_of ~deadline ~mem)
        ?checkpoint ~checkpoint_every ?resume
        ~on_event:(fun m -> Fmt.epr "weakord: %s@." m)
        ~machine ~model programs
    with
    | exception Explore.Resume_rejected msg ->
        Fmt.epr "weakord: unusable checkpoint: %s@." msg;
        exit 2
    | rr ->
        let report = rr.Weak_ordering.report in
        Fmt.pr "%a@." Weak_ordering.pp_report report;
        if verbose then
          List.iter
            (fun v ->
              Fmt.pr
                "  %-20s states=%d sym-group=%d sym-hits=%d%s@."
                (Prog.name v.Weak_ordering.program)
                v.Weak_ordering.states v.Weak_ordering.sym_group
                v.Weak_ordering.sym_hits
                (if v.Weak_ordering.spilled_runs > 0 then
                   Fmt.str " spilled-runs=%d spilled-keys=%d"
                     v.Weak_ordering.spilled_runs
                     v.Weak_ordering.spilled_keys
                 else ""))
            report.Weak_ordering.verdicts;
        (match rr.Weak_ordering.suspended with
        | Some reason ->
            Fmt.epr
              "weakord: %s budget exhausted after %d/%d program(s)%s@."
              (Explore.stop_reason_string reason)
              (List.length report.Weak_ordering.verdicts)
              (List.length programs)
              (match checkpoint with
              | Some p -> "; resume point written to " ^ p
              | None -> " (no --checkpoint: progress was discarded)");
            exit 3
        | None -> if not report.Weak_ordering.weakly_ordered then exit 1)
  in
  let doc = "check Definition 2 over a corpus of programs" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const action $ machine_flag $ model_flag $ files_arg $ jobs_flag
      $ no_por_flag $ fuel_flag $ deadline_flag $ mem_budget_flag
      $ checkpoint_flag $ checkpoint_every_flag $ resume_flag $ no_sym_flag
      $ spill_dir_flag $ verbose_flag)

(* --- sim -------------------------------------------------------------------- *)

let workload_of_name ?nprocs = function
  | "fig3" | "handoff" ->
      (match nprocs with
      | Some n when n <> 2 ->
          Fmt.failwith "fig3 is a fixed 2-processor handoff (got --nprocs %d)"
            n
      | _ -> ());
      Workload.fig3_handoff ()
  | "barrier" -> Workload.spin_barrier ?nprocs ()
  | "barrier-data" -> Workload.spin_barrier ?nprocs ~sync_spin:false ()
  | "locks" -> Workload.critical_sections ?nprocs ()
  | "pipeline" -> Workload.pipeline ?nprocs ()
  | "ticket" -> Workload.ticket_lock ?nprocs ()
  | "sense-barrier" -> Workload.sense_barrier ?nprocs ()
  | "sense-barrier-data" -> Workload.sense_barrier ?nprocs ~sync_spin:false ()
  | s -> Fmt.failwith "unknown workload %S" s

let policy_of_name n =
  match
    List.find_opt (fun p -> String.equal (Cpu.policy_name p) n) Cpu.all_policies
  with
  | Some p -> p
  | None -> Fmt.failwith "unknown policy %S" n

let sim_cmd =
  let workload_flag =
    Arg.(
      value & opt string "fig3"
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:
            "Workload: fig3|barrier|barrier-data|locks|pipeline|ticket|\
             sense-barrier|sense-barrier-data.")
  in
  let policy_flag =
    Arg.(
      value & opt_all string []
      & info [ "p"; "policy" ] ~docv:"NAME"
          ~doc:"Policy (sc|def1|def2|def2-rs); default all. Repeatable.")
  in
  let net_flag =
    Arg.(
      value & opt int 20
      & info [ "net" ] ~docv:"CYCLES" ~doc:"One-way network latency.")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the run's Chrome trace_event JSON to $(docv) (open in \
             Perfetto or chrome://tracing). With several policies the \
             policy name is inserted before the extension.")
  in
  let summary_flag =
    Arg.(
      value & flag
      & info [ "trace-summary" ]
          ~doc:
            "Print the per-category event table and the stall-attribution \
             table after each run.")
  in
  let nprocs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "nprocs" ] ~docv:"N"
          ~doc:
            "Run the workload at $(docv) processors (generators default to \
             their paper-scale widths).")
  in
  let normalize_flag =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:
            "Normalize the exported Chrome trace: shift timestamps to start \
             at 0 and totally order same-cycle events — byte-stable output \
             for golden comparisons.")
  in
  let golden_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"FILE"
          ~doc:
            "Write the run's timing fingerprint (normalized Chrome trace, \
             stall table, final memory image, total cycles) to $(docv). \
             Requires exactly one --policy.")
  in
  let no_sanitize_flag =
    Arg.(
      value & flag
      & info [ "no-sanitize" ]
          ~doc:
            "Skip the per-delivery coherence sanitizer sweep (it scans every \
             cache line on every message — quadratic in cores; timing is \
             unaffected either way). For throughput measurement at high \
             core counts.")
  in
  let action workload_name policy_names net nprocs normalize golden
      no_sanitize out summary =
    let w = workload_of_name ?nprocs workload_name in
    let cfg = Sim_config.make ~net ~sanitize:(not no_sanitize) () in
    let policies =
      match policy_names with
      | [] -> Cpu.all_policies
      | names -> List.map policy_of_name names
    in
    if golden <> None && List.length policies <> 1 then
      Fmt.failwith "--golden requires exactly one --policy";
    List.iter
      (fun p ->
        let obs =
          if out <> None || golden <> None || summary then Obs.create ()
          else Obs.null
        in
        let t0 = Unix.gettimeofday () in
        let r = Sim_run.run ~cfg ~obs p w in
        let wall = Unix.gettimeofday () -. t0 in
        Fmt.pr "%a@." Sim_run.pp r;
        let per s n = if s > 0. then float_of_int n /. s else 0. in
        Fmt.pr "%d events in %.1f ms (%.0f events/sec, %.0f cycles/sec)@."
          r.Sim_run.events (wall *. 1000.)
          (per wall r.Sim_run.events)
          (per wall r.Sim_run.total_cycles);
        if summary then
          Fmt.pr "%a@."
            (Obs.pp_summary ~stalls:r.Sim_run.stalls)
            obs;
        (match golden with
        | None -> ()
        | Some path ->
            Atomic_io.write_file path (Sim_run.golden_artifact ~obs r);
            Fmt.pr "golden written to %s@." path);
        (match out with
        | None -> ()
        | Some path ->
            let path =
              if List.length policies = 1 then path
              else
                Filename.remove_extension path
                ^ "." ^ Cpu.policy_name p
                ^ Filename.extension path
            in
            Obs.Chrome.write_file ~normalize path obs;
            Fmt.pr "trace written to %s@." path);
        Fmt.pr "@.")
      policies
  in
  let doc = "run a timing-simulator workload under the issue policies" in
  Cmd.v
    (Cmd.info "sim" ~doc)
    Term.(
      const action $ workload_flag $ policy_flag $ net_flag $ nprocs_flag
      $ normalize_flag $ golden_flag $ no_sanitize_flag $ out_flag
      $ summary_flag)

(* --- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let machine_flag =
    Arg.(
      value & opt string "def2"
      & info [ "m"; "machine" ] ~docv:"NAME"
          ~doc:"Issue policy to trace (sc|def1|def2|def2-rs).")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write Chrome trace_event JSON to $(docv) (open in Perfetto or \
             chrome://tracing).")
  in
  let summary_flag =
    Arg.(
      value & flag
      & info [ "trace-summary" ]
          ~doc:
            "Print the human-readable event and stall-attribution tables \
             (the default when no $(b,-o) is given).")
  in
  let normalize_flag =
    Arg.(
      value & flag
      & info [ "normalize" ]
          ~doc:
            "Shift timestamps so the earliest event starts at 0 — \
             byte-stable output for diffing and golden tests.")
  in
  let action test policy_name out summary normalize =
    let prog = prog_or_classic test in
    let policy = policy_of_name policy_name in
    let obs = Obs.create () in
    let r = Sim_litmus.run ~obs policy prog in
    Fmt.pr "%s under %s: %d cycles, %d messages, %d event(s) recorded@."
      (Prog.name prog)
      (Cpu.policy_name policy)
      r.Sim_litmus.total_cycles r.Sim_litmus.messages (Obs.recorded obs);
    (match out with
    | Some path ->
        Obs.Chrome.write_file ~normalize path obs;
        Fmt.pr "trace written to %s@." path
    | None -> ());
    if summary || out = None then
      Fmt.pr "%a@." (Obs.pp_summary ~stalls:r.Sim_litmus.stalls) obs
  in
  let doc =
    "run a litmus test on the timing simulator and export its structured \
     event trace"
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const action $ test_arg $ machine_flag $ out_flag $ summary_flag
      $ normalize_flag)

(* --- faults ------------------------------------------------------------------ *)

(* A fault campaign's resume point: the run grid is (scenario, program,
   seed) and every run is deterministic in that triple — [fault_seed] is
   the seed component — so recording the position (plus the grid itself,
   for identity validation) replays the identical fault schedule after a
   resume.  Accumulators travel along so the per-scenario summary lines
   come out right even when the scenario was split across processes. *)
type fault_ckpt = {
  f_policy : string;
  f_scenarios : string list;
  f_seeds : int;
  f_intensity : int;
  f_tests : string list;  (* program fingerprints, in campaign order *)
  f_pos : int * int * int;  (* scenario idx, program idx, next RNG seed *)
  f_failures : int;
  f_acc : int * int * int * int * int;  (* ok, retr, nacks, dups, maxc *)
}

let faults_kind = "weakord.faults"

let write_fault_ckpt path ck =
  let s, p, d = ck.f_pos in
  Snapshot.write_file path
    (Snapshot.frame ~kind:faults_kind
       ~meta:(Printf.sprintf "scenario %d, program %d, seed %d" s p d)
       ~payload:(Marshal.to_string ck []))

let load_fault_ckpt path =
  match Snapshot.load path with
  | Error (e, _) ->
      Fmt.epr "weakord: unusable checkpoint %s: %s@." path
        (Snapshot.error_string e);
      exit 2
  | Ok { Snapshot.container = c; recovered } ->
      if not (String.equal c.Snapshot.kind faults_kind) then begin
        Fmt.epr "weakord: %s holds a %S snapshot, expected %S@." path
          c.Snapshot.kind faults_kind;
        exit 2
      end;
      (match (Marshal.from_string c.Snapshot.payload 0 : fault_ckpt) with
      | ck -> (ck, recovered)
      | exception (Failure _ | Invalid_argument _) ->
          Fmt.epr "weakord: %s: checkpoint payload does not unmarshal@." path;
          exit 2)

let faults_cmd =
  let seeds_flag =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Fault schedules per scenario (seeds 0..N-1).")
  in
  let scenario_flag =
    Arg.(
      value & opt_all string []
      & info [ "s"; "scenario" ] ~docv:"NAME"
          ~doc:
            "Fault scenario (none|delay|drop|dup|chaos); default: every \
             faulty one. Repeatable.")
  in
  let policy_flag =
    Arg.(
      value & opt string "def2"
      & info [ "p"; "policy" ] ~docv:"NAME"
          ~doc:"Issue policy under test (sc|def1|def2|def2-rs).")
  in
  let intensity_flag =
    Arg.(
      value & opt int 1000
      & info [ "intensity" ] ~docv:"PERMILLE"
          ~doc:"Scale the scenario's fault rates (1000 = full strength).")
  in
  let tests_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TEST"
          ~doc:
            "Litmus files or built-in test names (default: the built-in \
             corpus).")
  in
  let window_flag =
    Arg.(
      value & opt int 0
      & info [ "trace-window" ] ~docv:"CYCLES"
          ~doc:
            "On each failing run, dump the trace events within $(docv) \
             cycles of every injected fault (0 disables tracing).")
  in
  let action seeds scenario_names policy_name intensity tests window deadline
      checkpoint resume =
    let policy = policy_of_name policy_name in
    let progs =
      match tests with
      | [] ->
          (* One concrete schedule runs per seed, so the corpus default
             excludes read_sync_release: its [await s 0] legitimately spins
             forever on schedules where the other thread's [Set(s,1)] wins
             the race — a program property, not a protocol wedge. *)
          List.filter_map
            (fun e ->
              let p = e.Litmus_classics.prog in
              if String.equal (Prog.name p) "read_sync_release" then None
              else Some p)
            Litmus_classics.all
      | ts -> List.map prog_or_classic ts
    in
    let scenarios =
      match scenario_names with
      | [] -> List.filter (fun (n, _) -> n <> "none") Fault.scenarios
      | names ->
          List.map
            (fun n ->
              match Fault.scenario n with
              | Some p -> (n, p)
              | None ->
                  Fmt.failwith "unknown scenario %S (%s)" n
                    (String.concat "|" Fault.scenario_names))
            names
    in
    let progs_a = Array.of_list progs in
    let scen_a = Array.of_list scenarios in
    let fps =
      List.map
        (fun p -> Format.asprintf "%s|%a" (Prog.name p) Prog.pp p)
        progs
    in
    let scen_names = List.map fst scenarios in
    let budget = budget_of ~deadline ~mem:None in
    (* Restore the campaign position and accumulators from a checkpoint;
       the grid (policy, scenarios, seeds, intensity, corpus) must match
       exactly or the resumed schedule would not be the original one. *)
    let (s0, p0, d0), failures0, acc0 =
      match resume with
      | None -> ((0, 0, 0), 0, (0, 0, 0, 0, 0))
      | Some path ->
          let ck, recovered = load_fault_ckpt path in
          let mismatch what =
            Fmt.epr
              "weakord: checkpoint %s was taken for a different campaign \
               (%s differs)@."
              path what;
            exit 2
          in
          if not (String.equal ck.f_policy policy_name) then
            mismatch "policy";
          if ck.f_scenarios <> scen_names then mismatch "scenario list";
          if ck.f_seeds <> seeds then mismatch "--seeds";
          if ck.f_intensity <> intensity then mismatch "--intensity";
          if ck.f_tests <> fps then mismatch "test corpus";
          let s, p, d = ck.f_pos in
          Fmt.epr
            "weakord: resuming campaign at scenario %d, program %d, seed \
             %d%s@."
            s p d
            (if recovered then
               " (recovered from the last-good .prev generation)"
             else "");
          (ck.f_pos, ck.f_failures, ck.f_acc)
    in
    let failures = ref failures0 in
    let ok = ref 0
    and retr = ref 0
    and nacks = ref 0
    and dups = ref 0
    and maxc = ref 0 in
    let () =
      let a, b, c, d, e = acc0 in
      ok := a;
      retr := b;
      nacks := c;
      dups := d;
      maxc := e
    in
    let save pos =
      match checkpoint with
      | None -> ()
      | Some path ->
          write_fault_ckpt path
            {
              f_policy = policy_name;
              f_scenarios = scen_names;
              f_seeds = seeds;
              f_intensity = intensity;
              f_tests = fps;
              f_pos = pos;
              f_failures = !failures;
              f_acc = (!ok, !retr, !nacks, !dups, !maxc);
            }
    in
    let nscen = Array.length scen_a and nprog = Array.length progs_a in
    Fmt.pr
      "fault campaign: %d program(s) x %d scenario(s) x %d seed(s), policy \
       %s, intensity %d/1000@.@."
      nprog nscen seeds (Cpu.policy_name policy) intensity;
    (* Each program's SC set, enumerated at most once for the whole
       campaign: every perturbed run of a DRF0 program is checked
       against it. *)
    let sc_sets = Array.map (fun p -> lazy (Sc.outcomes p)) progs_a in
    let si = ref s0 and pi = ref p0 and di = ref d0 in
    while !si < nscen do
      let sname, profile = scen_a.(!si) in
      let profile = Fault.scale profile ~permille:intensity in
      while !pi < nprog do
        let prog = progs_a.(!pi) in
        let drf0 = Drf.obeys ~model:Drf.DRF0 prog in
        while !di < seeds do
          (* Safe point before each run: suspend cleanly at the deadline
             with a checkpoint pointing at this exact (scenario, program,
             seed) — the resumed campaign replays the identical fault
             schedule from here. *)
          (match budget with
          | Some b when Budget.over_deadline b ->
              save (!si, !pi, !di);
              Fmt.epr
                "weakord: deadline exhausted at scenario %d/%d, program \
                 %d/%d, seed %d/%d%s@."
                !si nscen !pi nprog !di seeds
                (match checkpoint with
                | Some p -> "; resume point written to " ^ p
                | None -> " (no --checkpoint: progress was discarded)");
              exit 3
          | _ -> ());
          let seed = !di in
          let cfg = Sim_config.make ~faults:profile ~fault_seed:seed () in
          let obs = if window > 0 then Obs.create () else Obs.null in
          (* On a failing run, show the events surrounding each
             injected fault — the ring retains them even when the run
             raised. *)
          let dump_fault_windows () =
            if window > 0 then
              List.iter
                (fun e ->
                  if String.equal e.Obs.cat "fault" then
                    Fmt.pr "%a@."
                      (fun ppf ->
                        Obs.pp_window ppf ~around:e.Obs.ts ~radius:window)
                      obs)
                (Obs.events obs)
          in
          (* The watchdog hook dumps a final checkpoint (pointing at the
             wedged run) before the abort unwinds the simulator. *)
          (match
             Sim_litmus.try_run ~cfg ~obs
               ~on_wedged:(fun _diag -> save (!si, !pi, !di))
               policy prog
           with
          | Error f ->
              incr failures;
              Fmt.pr "FAIL %-22s %-6s seed %-3d %s@." (Prog.name prog) sname
                seed (Sim_run.failure_kind f);
              dump_fault_windows ()
          | Ok r ->
              retr := !retr + r.Sim_litmus.retransmits;
              nacks := !nacks + r.Sim_litmus.nacks;
              dups := !dups + r.Sim_litmus.dups_suppressed;
              maxc := max !maxc r.Sim_litmus.total_cycles;
              if
                drf0
                && not
                     (Sim_litmus.in_set prog r.Sim_litmus.final
                        (Lazy.force sc_sets.(!pi)))
              then begin
                incr failures;
                Fmt.pr "FAIL %-22s %-6s seed %-3d non-SC outcome %a@."
                  (Prog.name prog) sname seed Final.pp r.Sim_litmus.final;
                dump_fault_windows ()
              end
              else incr ok);
          incr di;
          save (!si, !pi, !di)
        done;
        di := 0;
        incr pi
      done;
      Fmt.pr
        "%-6s %4d ok, max %7d cycles, %5d retransmits, %4d nacks, %4d \
         dups suppressed@."
        sname !ok !maxc !retr !nacks !dups;
      ok := 0;
      retr := 0;
      nacks := 0;
      dups := 0;
      maxc := 0;
      pi := 0;
      incr si;
      save (!si, 0, 0)
    done;
    if !failures > 0 then begin
      Fmt.pr "@.%d failing run(s).@." !failures;
      exit 1
    end
    else
      Fmt.pr
        "@.every fault schedule terminated, passed the sanitizer, and \
         produced a model-allowed outcome.@."
  in
  let doc =
    "run seeded fault-injection campaigns over the litmus corpus on the \
     protocol simulator"
  in
  Cmd.v
    (Cmd.info "faults" ~doc)
    Term.(
      const action $ seeds_flag $ scenario_flag $ policy_flag $ intensity_flag
      $ tests_arg $ window_flag $ deadline_flag $ checkpoint_flag
      $ resume_flag)

(* --- fences ------------------------------------------------------------------ *)

let fences_cmd =
  let action test =
    let prog = prog_or_classic test in
    let evts = Evts.of_prog prog in
    let pairs = Delay_set.delay_pairs evts in
    Fmt.pr "%a@.@." Prog.pp prog;
    if pairs = [] then
      Fmt.pr "The delay set is empty: no cross-processor orderings needed.@."
    else begin
      Fmt.pr "Delay set (%d program-order pairs to enforce):@."
        (List.length pairs);
      List.iter
        (fun (a, b) ->
          Fmt.pr "  %a before %a@." Event.pp (Evts.event evts a) Event.pp
            (Evts.event evts b))
        pairs;
      let fenced = Delay_set.with_fences prog in
      Fmt.pr "@.Fenced program:@.%s@." (Litmus_print.to_string fenced);
      Fmt.pr "appears SC on wbuf: %b, on ooo: %b@."
        (Machines.appears_sc Machines.wbuf fenced)
        (Machines.appears_sc Machines.ooo fenced)
    end
  in
  let doc = "Shasha-Snir delay-set analysis and fence insertion" in
  Cmd.v (Cmd.info "fences" ~doc) Term.(const action $ test_arg)

(* --- gen --------------------------------------------------------------------- *)

let profile_conv =
  let parse s =
    match Litmus_gen.profile_of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown profile %S (default|wide|deep-await|mixed-sync)" s))
  in
  let print ppf p = Fmt.string ppf (Litmus_gen.profile_name p) in
  Arg.conv (parse, print)

let profile_flag =
  Arg.(
    value
    & opt profile_conv Litmus_gen.default_config.Litmus_gen.profile
    & info [ "profile" ] ~docv:"NAME"
        ~doc:
          "Generator shape profile: $(b,default), $(b,wide) (more, shorter \
           threads), $(b,deep-await) (await-heavy synchronization chains), \
           $(b,mixed-sync) (a location accessed both plainly and as a \
           synchronization point). Each profile is its own frozen \
           seed-to-program mapping; the profile is part of every repro \
           recipe.")

let no_shrink_flag =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:
          "Skip ddmin minimization of quarantined programs (dossiers ship \
           only the full generated program).")

let gen_cmd =
  let seed_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"SEED" ~doc:"Generator seed (any integer).")
  in
  let threads_flag =
    Arg.(
      value
      & opt int Litmus_gen.default_config.Litmus_gen.max_threads
      & info [ "threads" ] ~docv:"N" ~doc:"Maximum threads.")
  in
  let instrs_flag =
    Arg.(
      value
      & opt int Litmus_gen.default_config.Litmus_gen.max_instrs
      & info [ "instrs" ] ~docv:"N" ~doc:"Maximum instructions per thread.")
  in
  let locs_flag =
    Arg.(
      value
      & opt int Litmus_gen.default_config.Litmus_gen.num_locs
      & info [ "locs" ] ~docv:"N" ~doc:"Data locations.")
  in
  let sync_locs_flag =
    Arg.(
      value
      & opt int Litmus_gen.default_config.Litmus_gen.num_sync_locs
      & info [ "sync-locs" ] ~docv:"N" ~doc:"Synchronization locations.")
  in
  let no_rmw_flag =
    Arg.(value & flag & info [ "no-rmw" ] ~doc:"No read-modify-writes.")
  in
  let no_await_flag =
    Arg.(value & flag & info [ "no-await" ] ~doc:"No await spins.")
  in
  let live_flag =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Retry (deterministically) until the program has at least one \
             complete SC execution; exit 1 if none within the attempt \
             bound.")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the litmus source to $(docv) instead of stdout.")
  in
  let action seed threads instrs locs sync_locs no_rmw no_await profile live
      out =
    let config =
      {
        Litmus_gen.max_threads = threads;
        max_instrs = instrs;
        num_locs = locs;
        num_sync_locs = sync_locs;
        allow_rmw = not no_rmw;
        allow_await = not no_await;
        profile;
      }
    in
    let prog =
      if live then
        match Litmus_gen.generate_live ~config seed with
        | Some p -> p
        | None ->
            Fmt.epr
              "weakord: seed %d yields no live program within the attempt \
               bound@."
              seed;
            exit 1
      else Litmus_gen.generate ~config seed
    in
    let text = Litmus_print.to_string prog in
    match out with
    | None -> print_string text
    | Some path ->
        Out_channel.with_open_bin path (fun ch ->
            Out_channel.output_string ch text)
  in
  let doc =
    "emit the litmus source for a generator seed (deterministic: the same \
     seed and flags always reproduce the same program — the $(b,seed) and \
     $(b,gen) fields in batch/serve JSONL records and in fuzz quarantine \
     reports name exactly this invocation)"
  in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(
      const action $ seed_arg $ threads_flag $ instrs_flag $ locs_flag
      $ sync_locs_flag $ no_rmw_flag $ no_await_flag $ profile_flag
      $ live_flag $ out_flag)

(* --- batch ------------------------------------------------------------------- *)

let batch_cmd =
  let jobfile_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOBFILE"
          ~doc:
            "The job file ($(b,-) for stdin): one job per line — see the \
             format in DESIGN.md ($(b,test NAME), $(b,file PATH), $(b,seed \
             N), $(b,seeds LO..HI), $(b,wedge), with $(b,machine=M) and \
             generator options per line).")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Append results as JSONL to $(docv) (default: stdout). One \
             object per job, in completion order, carrying the engine \
             telemetry ($(b,states), $(b,complete) and \
             $(b,spilled_runs), the visited-set runs a sweep spilled to \
             disk under $(b,--mem-budget)); volatile fields \
             ($(b,cached), $(b,attempts), $(b,ms)) come last so runs can \
             be compared after stripping them.")
  in
  let workers_flag =
    Arg.(
      value & opt int Batch.default_cfg.Batch.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Forked worker processes to keep in flight. Each is forked \
             once and runs job after job, each job outside the supervisor: \
             a crash or wedge costs that attempt and that worker, never \
             the batch.")
  in
  let timeout_flag =
    Arg.(
      value & opt float Batch.default_cfg.Batch.timeout_s
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-job wall clock; a worker past it is SIGKILLed and the \
             attempt counts as failed.")
  in
  let retries_flag =
    Arg.(
      value & opt int Batch.default_cfg.Batch.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts per job before quarantine (with exponential backoff \
             and deterministic jitter between attempts).")
  in
  let backoff_flag =
    Arg.(
      value & opt int Batch.default_cfg.Batch.backoff_ms
      & info [ "backoff" ] ~docv:"MS" ~doc:"Base retry backoff.")
  in
  let cache_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Persistent verdict cache. Append-only, CRC-validated per \
             record: a torn or corrupted record is skipped and recomputed, \
             never trusted. Keyed by canonical program text, machine, \
             model and engine version, so replaying a corpus is nearly \
             free and an engine change can never serve stale verdicts.")
  in
  let model_flag =
    Arg.(
      value & opt string "drf0"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Synchronization model (drf0|drf1|all|none).")
  in
  let machine_flag =
    Arg.(
      value & opt string "def2"
      & info [ "m"; "machine" ] ~docv:"NAME"
          ~doc:"Default machine for job-file lines that name none.")
  in
  let fuel_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Per-job state-expansion bound forwarded to the workers.")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Log per-attempt worker lifecycle events: pids, retries, \
             exact-key cache hits and symmetry-key dedups (the \
             $(b,sym_dedup) counter in the closing summary).")
  in
  let action jobfile out workers timeout retries backoff cache_path model_name
      machine deadline checkpoint resume fuel verbose spill_dir mem_budget =
    let model =
      match Worker.model_of_string model_name with
      | Some m -> m
      | None ->
          Fmt.epr "weakord: unknown model %S (drf0|drf1|all|none)@." model_name;
          exit 2
    in
    (match Machines.find machine with
    | Some _ -> ()
    | None ->
        Fmt.epr "weakord: unknown machine %S@." machine;
        exit 2);
    let jobs =
      let parsed =
        if String.equal jobfile "-" then
          Job.parse_string ~default_machine:machine
            (In_channel.input_all In_channel.stdin)
        else Job.parse_file ~default_machine:machine jobfile
      in
      match parsed with
      | Ok jobs -> jobs
      | Error msg ->
          Fmt.epr "weakord: %s: %s@."
            (if String.equal jobfile "-" then "<stdin>" else jobfile)
            msg;
          exit 2
    in
    if jobs = [] then begin
      Fmt.epr "weakord: %s: no jobs@." jobfile;
      exit 2
    end;
    let cache =
      match cache_path with
      | None -> Verdict_cache.in_memory ()
      | Some p -> Verdict_cache.open_file p
    in
    let cfg =
      {
        Batch.out;
        workers;
        timeout_s = timeout;
        retries;
        backoff_ms = backoff;
        cache;
        checkpoint;
        resume;
        deadline_s = deadline;
        model;
        fuel;
        spill_dir;
        mem_budget;
        log = (fun m -> Fmt.epr "weakord: %s@." m);
        verbose;
      }
    in
    match Batch.run cfg jobs with
    | exception Batch.Resume_rejected msg ->
        Verdict_cache.close cache;
        Fmt.epr "weakord: unusable checkpoint: %s@." msg;
        exit 2
    | summary ->
        Verdict_cache.close cache;
        Fmt.epr "%a@." Batch.pp_summary summary;
        if summary.Batch.suspended then
          Fmt.epr "weakord: batch drained with %d job(s) pending%s@."
            summary.Batch.pending
            (match checkpoint with
            | Some p -> "; resume point written to " ^ p
            | None -> " (no --checkpoint: progress was discarded)");
        exit (Batch.exit_code summary)
  in
  let doc =
    "run a batch of verification jobs under a crash-isolating supervisor \
     (forked workers, timeouts, retry with backoff, poison-job \
     quarantine, persistent verdict cache, drain/resume)"
  in
  Cmd.v
    (Cmd.info "batch" ~doc)
    Term.(
      const action $ jobfile_arg $ out_flag $ workers_flag $ timeout_flag
      $ retries_flag $ backoff_flag $ cache_flag $ model_flag $ machine_flag
      $ deadline_flag $ checkpoint_flag $ resume_flag $ fuel_flag
      $ verbose_flag $ spill_dir_flag $ mem_budget_flag)

(* --- serve ------------------------------------------------------------------- *)

let socket_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOCKET" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Append every finished ticket as JSONL to $(docv) — the same \
             record schema as $(b,weakord batch) (including the \
             $(b,spilled_runs) telemetry field), with ticket numbers as \
             job ids.")
  in
  let workers_flag =
    Arg.(
      value & opt int Daemon.default_cfg.Daemon.workers
      & info [ "workers" ] ~docv:"N"
          ~doc:"Forked worker processes to keep in flight across all clients.")
  in
  let timeout_flag =
    Arg.(
      value & opt float Daemon.default_cfg.Daemon.timeout_s
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-job wall clock; a worker past it is SIGKILLed and the \
             attempt counts as failed.")
  in
  let retries_flag =
    Arg.(
      value & opt int Daemon.default_cfg.Daemon.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Attempts per job before quarantine.")
  in
  let backoff_flag =
    Arg.(
      value & opt int Daemon.default_cfg.Daemon.backoff_ms
      & info [ "backoff" ] ~docv:"MS" ~doc:"Base retry backoff.")
  in
  let cache_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Persistent verdict cache shared by every client (exact key \
             plus the orbit-canonical symmetry key) — the daemon's whole \
             point: verdicts amortize across clients and restarts.")
  in
  let model_flag =
    Arg.(
      value & opt string "drf0"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Synchronization model (drf0|drf1|all|none).")
  in
  let machine_flag =
    Arg.(
      value & opt string "def2"
      & info [ "m"; "machine" ] ~docv:"NAME"
          ~doc:"Default machine for SUBMIT lines that name none.")
  in
  let fuel_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Per-job state-expansion bound forwarded to the workers.")
  in
  let max_clients_flag =
    Arg.(
      value & opt int Daemon.default_cfg.Daemon.max_clients
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent connections before new ones are refused (503).")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Log connections and per-attempt worker lifecycle events \
             (pids, retries, cache/sym-dedup hits).")
  in
  let action socket out workers timeout retries backoff cache_path model_name
      machine checkpoint resume fuel spill_dir mem_budget max_clients verbose =
    let model =
      match Worker.model_of_string model_name with
      | Some m -> m
      | None ->
          Fmt.epr "weakord: unknown model %S (drf0|drf1|all|none)@." model_name;
          exit 2
    in
    (match Machines.find machine with
    | Some _ -> ()
    | None ->
        Fmt.epr "weakord: unknown machine %S@." machine;
        exit 2);
    let cache =
      match cache_path with
      | None -> Verdict_cache.in_memory ()
      | Some p -> Verdict_cache.open_file p
    in
    let cfg =
      {
        Daemon.socket;
        out;
        workers;
        timeout_s = timeout;
        retries;
        backoff_ms = backoff;
        cache;
        checkpoint;
        resume;
        model;
        machine;
        fuel;
        spill_dir;
        mem_budget;
        max_clients;
        log = (fun m -> Fmt.epr "weakord: %s@." m);
        verbose;
      }
    in
    match Daemon.run cfg with
    | exception Daemon.Startup_error msg ->
        Verdict_cache.close cache;
        Fmt.epr "weakord: %s@." msg;
        exit 2
    | summary ->
        Verdict_cache.close cache;
        Fmt.epr "%a@." Daemon.pp_summary summary;
        if summary.Daemon.suspended then
          Fmt.epr "weakord: daemon drained with %d job(s) pending%s@."
            summary.Daemon.pending
            (match checkpoint with
            | Some p -> "; resume point written to " ^ p
            | None -> " (no --checkpoint: progress was discarded)");
        exit (Daemon.exit_code summary)
  in
  let doc =
    "serve verification jobs to many concurrent clients over a Unix-domain \
     socket (wire protocol in docs/PROTOCOL.md; per-client fair \
     scheduling, one shared verdict cache, SIGTERM drain + checkpoint + \
     resume like batch)"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const action $ socket_arg $ out_flag $ workers_flag $ timeout_flag
      $ retries_flag $ backoff_flag $ cache_flag $ model_flag $ machine_flag
      $ checkpoint_flag $ resume_flag $ fuel_flag $ spill_dir_flag
      $ mem_budget_flag $ max_clients_flag $ verbose_flag)

(* --- client ------------------------------------------------------------------ *)

let client_cmd =
  let timeout_flag =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Give up waiting for a response after $(docv).")
  in
  let no_hello_flag =
    Arg.(
      value & flag
      & info [ "no-hello" ]
          ~doc:
            "Skip the HELLO handshake (for exercising the server's \
             handshake enforcement; normal requests will be refused with \
             ERR 401).")
  in
  let action socket timeout no_hello =
    let fd =
      match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | fd -> (
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | () -> fd
          | exception Unix.Unix_error (e, _, _) ->
              Fmt.epr "weakord: cannot connect to %s: %s@." socket
                (Unix.error_message e);
              exit 2)
      | exception Unix.Unix_error (e, _, _) ->
          Fmt.epr "weakord: socket: %s@." (Unix.error_message e);
          exit 2
    in
    let dec = Wire.decoder () in
    let buf = Bytes.create 4096 in
    (* A drain can close the socket under us between requests; report
       that as a closed connection, not a crash — and as success when
       we were only saying BYE anyway. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let closing = ref false in
    let closed_by_server () =
      if !closing then exit 0
      else begin
        Fmt.epr "weakord: server closed the connection@.";
        exit 1
      end
    in
    (* Lockstep: one request on the wire at a time, so responses cannot
       interleave (RESULT WAIT simply blocks here until the job is
       done). *)
    let recv () =
      let deadline = Unix.gettimeofday () +. timeout in
      let rec go () =
        match Wire.next dec with
        | Ok (Some payload) -> payload
        | Error e ->
            Fmt.epr "weakord: protocol error: %s@." e;
            exit 1
        | Ok None -> (
            if Unix.gettimeofday () > deadline then begin
              Fmt.epr "weakord: timed out waiting for a response@.";
              exit 1
            end;
            match Unix.select [ fd ] [] [] 0.25 with
            | [], _, _ -> go ()
            | _ -> (
                match Unix.read fd buf 0 4096 with
                | 0 -> closed_by_server ()
                | n ->
                    Wire.feed dec (Bytes.sub_string buf 0 n);
                    go ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
                | exception
                    Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                    closed_by_server ()))
      in
      go ()
    in
    let send payload =
      let s = Wire.frame payload in
      match Unix.write_substring fd s 0 (String.length s) with
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          closed_by_server ()
    in
    let roundtrip payload =
      send payload;
      let resp = recv () in
      print_endline resp;
      flush Stdlib.stdout;
      resp
    in
    if not no_hello then begin
      let hello = roundtrip ("HELLO " ^ Wire.greeting) in
      if not (String.length hello >= 2 && String.sub hello 0 2 = "OK")
      then begin
        Fmt.epr "weakord: handshake refused@.";
        exit 1
      end
    end;
    let rec loop () =
      match In_channel.input_line In_channel.stdin with
      | None ->
          closing := true;
          ignore (roundtrip "BYE")
      | Some line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then loop ()
          else begin
            if String.uppercase_ascii line = "BYE" then closing := true;
            ignore (roundtrip line);
            if !closing then () else loop ()
          end
    in
    loop ();
    (try Unix.close fd with Unix.Unix_error _ -> ());
    exit 0
  in
  let doc =
    "drive a running weakord daemon from stdin: each input line is sent \
     as one protocol request (SUBMIT/STATUS/RESULT/CANCEL/STATS/DRAIN/ \
     PING/BYE) and each response is printed to stdout — the HELLO \
     handshake and length-prefixed framing are handled for you"
  in
  Cmd.v
    (Cmd.info "client" ~doc)
    Term.(const action $ socket_arg $ timeout_flag $ no_hello_flag)

(* --- fuzz -------------------------------------------------------------------- *)

(* Shared by fuzz and fleet: --seeds LO..HI / --count N resolution. *)
let resolve_seed_range ~seeds ~count =
  match (seeds, count) with
  | Some _, Some _ ->
      Fmt.epr "weakord: --seeds and --count are mutually exclusive@.";
      exit 2
  | None, Some n when n > 0 -> (0, n - 1)
  | None, Some _ ->
      Fmt.epr "weakord: --count must be positive@.";
      exit 2
  | Some s, None -> (
      match String.index_opt s '.' with
      | Some i when i + 1 < String.length s && s.[i + 1] = '.' && i > 0 ->
          let parse what v =
            match int_of_string_opt v with
            | Some n -> n
            | None ->
                Fmt.epr "weakord: --seeds: bad %s %S@." what v;
                exit 2
          in
          let lo = parse "low bound" (String.sub s 0 i) in
          let hi =
            parse "high bound" (String.sub s (i + 2) (String.length s - i - 2))
          in
          if lo > hi then begin
            Fmt.epr "weakord: --seeds: empty range %s@." s;
            exit 2
          end;
          (lo, hi)
      | _ ->
          Fmt.epr "weakord: --seeds expects LO..HI, got %S@." s;
          exit 2)
  | None, None ->
      Fmt.epr "weakord: need --seeds LO..HI or --count N@.";
      exit 2

let resolve_machines = function
  | [] -> Machines.all
  | names ->
      List.map
        (fun n ->
          match Machines.find n with
          | Some m -> m
          | None ->
              Fmt.epr "weakord: unknown machine %S@." n;
              exit 2)
        names

(* Flags shared by fuzz and fleet. *)
let seeds_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "seeds" ] ~docv:"LO..HI"
        ~doc:"Inclusive seed range to check (e.g. $(b,0..9999)).")

let count_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "count" ] ~docv:"N" ~doc:"Shorthand for $(b,--seeds) $(i,0..N-1).")

let fz_threads_flag =
  Arg.(
    value
    & opt int Litmus_gen.default_config.Litmus_gen.max_threads
    & info [ "threads" ] ~docv:"N" ~doc:"Maximum threads per program.")

let fz_instrs_flag =
  Arg.(
    value
    & opt int Litmus_gen.default_config.Litmus_gen.max_instrs
    & info [ "instrs" ] ~docv:"N" ~doc:"Maximum instructions per thread.")

let fz_locs_flag =
  Arg.(
    value
    & opt int Litmus_gen.default_config.Litmus_gen.num_locs
    & info [ "locs" ] ~docv:"N" ~doc:"Data locations.")

let fz_sync_locs_flag =
  Arg.(
    value
    & opt int Litmus_gen.default_config.Litmus_gen.num_sync_locs
    & info [ "sync-locs" ] ~docv:"N" ~doc:"Synchronization locations.")

let fz_no_rmw_flag =
  Arg.(value & flag & info [ "no-rmw" ] ~doc:"No read-modify-writes.")

let fz_no_await_flag =
  Arg.(value & flag & info [ "no-await" ] ~doc:"No await spins.")

let fz_machines_flag =
  Arg.(
    value
    & opt_all string []
    & info [ "m"; "machine" ] ~docv:"NAME"
        ~doc:
          "Operational machine(s) to sweep (repeatable; default: all of \
           them).")

let fz_no_sim_flag =
  Arg.(
    value & flag & info [ "no-sim" ] ~doc:"Skip the timing-simulator oracle leg.")

let fz_sim_limit_flag =
  Arg.(
    value & opt int Fuzz.default_cfg.Fuzz.sim_limit
    & info [ "sim-limit" ] ~docv:"N"
        ~doc:"Simulator event budget per run (wedge = livelock past it).")

let fz_quarantine_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "quarantine" ] ~docv:"DIR"
        ~doc:
          "Write each disagreement's program source and report (with the \
           seed-exact repro recipe) into $(docv).")

let fuzz_cmd =
  let progress_flag =
    Arg.(
      value & opt int 0
      & info [ "progress" ] ~docv:"N"
          ~doc:"Log a progress line every $(docv) programs.")
  in
  let action seeds count threads instrs locs sync_locs no_rmw no_await profile
      machine_names no_sim sim_limit quarantine no_shrink deadline progress =
    let lo, hi = resolve_seed_range ~seeds ~count in
    let machines = resolve_machines machine_names in
    let cfg =
      {
        Fuzz.config =
          {
            Litmus_gen.max_threads = threads;
            max_instrs = instrs;
            num_locs = locs;
            num_sync_locs = sync_locs;
            allow_rmw = not no_rmw;
            allow_await = not no_await;
            profile;
          };
        machines;
        sim = not no_sim;
        sim_limit;
        quarantine;
        shrink = not no_shrink;
        deadline_s = deadline;
        progress;
        log = (fun m -> Fmt.epr "weakord: %s@." m);
      }
    in
    let summary = Fuzz.run cfg ~lo ~hi in
    Fmt.epr "%a@." Fuzz.pp_summary summary;
    List.iter
      (fun d ->
        Fmt.pr "DISAGREEMENT seed=%d check=%s%s@." d.Fuzz.d_seed
          d.Fuzz.d_check
          (match d.Fuzz.d_quarantined with
          | Some p -> " report=" ^ p
          | None -> ""))
      summary.Fuzz.disagreements;
    exit (Fuzz.exit_code summary)
  in
  let doc =
    "stream a generated corpus through the three-way differential oracle \
     (operational machines vs axiomatic models vs timing simulator) and \
     quarantine any disagreement with a seed-exact repro recipe"
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const action $ seeds_flag $ count_flag $ fz_threads_flag $ fz_instrs_flag
      $ fz_locs_flag $ fz_sync_locs_flag $ fz_no_rmw_flag $ fz_no_await_flag
      $ profile_flag $ fz_machines_flag $ fz_no_sim_flag $ fz_sim_limit_flag
      $ fz_quarantine_flag $ no_shrink_flag $ deadline_flag $ progress_flag)

(* --- fleet ------------------------------------------------------------------- *)

let fleet_cmd =
  let shards_flag =
    Arg.(
      value & opt int Fleet.default_cfg.Fleet.shards
      & info [ "shards" ] ~docv:"N"
          ~doc:"Concurrent fork-isolated shard workers.")
  in
  let unit_flag =
    Arg.(
      value & opt int Fleet.default_cfg.Fleet.unit_seeds
      & info [ "unit" ] ~docv:"N"
          ~doc:
            "Seeds per work unit — the granularity of scheduling, retry \
             and checkpoint accounting.")
  in
  let hang_timeout_flag =
    Arg.(
      value & opt float Fleet.default_cfg.Fleet.hang_timeout_s
      & info [ "hang-timeout" ] ~docv:"SECS"
          ~doc:
            "Per-seed heartbeat budget. A shard that has not advanced past \
             a seed within $(docv) is SIGKILLed and the unit is bisected \
             around the suspect seed.")
  in
  let retries_flag =
    Arg.(
      value & opt int Fleet.default_cfg.Fleet.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Hang strikes (or failed attempts) before a seed is poison and \
             quarantined with a minimized reproducer.")
  in
  let backoff_flag =
    Arg.(
      value & opt int Fleet.default_cfg.Fleet.backoff_ms
      & info [ "backoff" ] ~docv:"MS"
          ~doc:"Base delay for suspect-retry exponential backoff.")
  in
  let wedge_seed_flag =
    Arg.(
      value
      & opt_all int []
      & info [ "wedge-seed" ] ~docv:"SEED"
          ~doc:
            "Chaos injection (repeatable): wedge the shard on $(docv) \
             forever, deterministically exercising the hang-hunting and \
             poison-quarantine path.")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Append unit/disagreement/poison JSONL records to $(docv) \
             instead of stdout (append mode, so a resumed campaign \
             continues the same stream).")
  in
  let stats_socket_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-socket" ] ~docv:"SOCKET"
          ~doc:
            "Serve live campaign gauges over this Unix socket (daemon \
             wire protocol; poke it with $(b,weakord client) $(docv) \
             $(b,stats)).")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Log shard lifecycle events: spawns (with pids), heartbeat \
             kills, bisections, requeues and checkpoint writes.")
  in
  let action seeds count threads instrs locs sync_locs no_rmw no_await profile
      machine_names no_sim sim_limit quarantine no_shrink shards unit_seeds
      hang_timeout retries backoff wedge_seeds out checkpoint resume deadline
      mem_budget stats_socket verbose =
    let lo, hi = resolve_seed_range ~seeds ~count in
    let machines = resolve_machines machine_names in
    let oracle =
      {
        Fuzz.config =
          {
            Litmus_gen.max_threads = threads;
            max_instrs = instrs;
            num_locs = locs;
            num_sync_locs = sync_locs;
            allow_rmw = not no_rmw;
            allow_await = not no_await;
            profile;
          };
        machines;
        sim = not no_sim;
        sim_limit;
        quarantine;
        shrink = not no_shrink;
        deadline_s = None;
        progress = 0;
        log = ignore;
      }
    in
    let cfg =
      {
        Fleet.oracle;
        shards;
        unit_seeds;
        hang_timeout_s = hang_timeout;
        retries;
        backoff_ms = backoff;
        out;
        checkpoint;
        resume;
        deadline_s = deadline;
        mem_budget;
        wedge_seeds;
        stats_socket;
        log = (fun m -> Fmt.epr "weakord: %s@." m);
        verbose;
      }
    in
    match Fleet.run cfg ~lo ~hi with
    | exception Fleet.Resume_rejected msg ->
        Fmt.epr "weakord: unusable checkpoint: %s@." msg;
        exit 2
    | exception Invalid_argument msg ->
        Fmt.epr "weakord: %s@." msg;
        exit 2
    | summary ->
        Fmt.epr "%a@." Fleet.pp_summary summary;
        if summary.Fleet.f_suspended then
          Fmt.epr "weakord: fleet drained with %d unit(s) pending%s@."
            summary.Fleet.f_pending
            (match checkpoint with
            | Some p -> "; resume point written to " ^ p
            | None -> " (no --checkpoint: progress was discarded)");
        exit (Fleet.exit_code summary)
  in
  let doc =
    "drive the differential fuzz oracle across a fault-tolerant sharded \
     fleet: fork-isolated shard workers, heartbeat hang-hunting with \
     seed bisection, poison quarantine with ddmin-minimized reproducers, \
     and drain/resume checkpoints"
  in
  Cmd.v
    (Cmd.info "fleet" ~doc)
    Term.(
      const action $ seeds_flag $ count_flag $ fz_threads_flag $ fz_instrs_flag
      $ fz_locs_flag $ fz_sync_locs_flag $ fz_no_rmw_flag $ fz_no_await_flag
      $ profile_flag $ fz_machines_flag $ fz_no_sim_flag $ fz_sim_limit_flag
      $ fz_quarantine_flag $ no_shrink_flag $ shards_flag $ unit_flag
      $ hang_timeout_flag $ retries_flag $ backoff_flag $ wedge_seed_flag
      $ out_flag $ checkpoint_flag $ resume_flag $ deadline_flag
      $ mem_budget_flag $ stats_socket_flag $ verbose_flag)

(* --- list ------------------------------------------------------------------- *)

let list_cmd =
  let action () =
    Fmt.pr "built-in litmus tests:@.";
    List.iter
      (fun e ->
        Fmt.pr "  %-20s %s@."
          (Prog.name e.Litmus_classics.prog)
          e.Litmus_classics.descr)
      Litmus_classics.all;
    Fmt.pr "@.machines:@.";
    List.iter
      (fun m -> Fmt.pr "  %-8s %s@." (Machines.name m) (Machines.descr m))
      Machines.all;
    Fmt.pr "@.axiomatic models:@.";
    List.iter (fun m -> Fmt.pr "  %s@." (Models.name m)) Models.all;
    Fmt.pr
      "@.sim workloads: fig3 barrier barrier-data locks pipeline ticket \
       sense-barrier sense-barrier-data@.";
    Fmt.pr "sim policies:  %s@."
      (String.concat " " (List.map Cpu.policy_name Cpu.all_policies))
  in
  let doc = "list built-in tests, machines, models and workloads" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())

let () =
  let doc = "weak ordering, as a software/hardware contract (Adve & Hill 1990)" in
  let info = Cmd.info "weakord" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            races_cmd;
            verify_cmd;
            sim_cmd;
            trace_cmd;
            faults_cmd;
            fences_cmd;
            gen_cmd;
            batch_cmd;
            serve_cmd;
            client_cmd;
            fuzz_cmd;
            fleet_cmd;
            list_cmd;
          ]))
