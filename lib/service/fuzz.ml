(* The corpus soundness fuzzer behind [weakord fuzz].

   Three independent implementations of the paper's semantics exist in
   this repository: the operational machines (lib/machine), the
   axiomatic models over candidate executions (lib/axiomatic), and the
   cycle-accurate protocol simulator (lib/sim).  They were written
   against the same prose, not against each other — so streaming a
   generated corpus through all three and comparing is a genuine
   differential oracle: any disagreement is a bug in at least one of
   them (or in the paper reading they share).

   The oracle relations per program mirror test_differential.ml:

     axiomatic SC      = operational SC          (set equality)
     SC                ⊆ every machine           (weakening only adds)
     wbuf              ⊆ TSO axioms              (envelope)
     def1, def2        ⊆ their axiomatic models  (envelope)
     def1 ⊆ def2 ⊆ def2-rs                       (hierarchy)
     DRF0 program      ⇒ def1/def2 appear SC     (the paper's theorem)
     DRF1 program      ⇒ def2-rs/rc appear SC    (Section 6)
     simulator final   ∈ SC set                  (policy- and DRF-gated)

   A disagreement quarantines the seed with its full program text, a
   seed-exact reproduction recipe and a ddmin-minimized reproducer; the
   fuzzer itself keeps going, so a nightly 10^5-seed run reports every
   divergence, not just the first.

   The per-seed oracle is exposed as [check_prog]/[check_seed] so the
   sharded fleet supervisor ([Fleet]) can run exactly the same checks
   inside its fork-isolated shard workers: one seed, in, one
   [seed_report] out, no shared state. *)

type cfg = {
  config : Litmus_gen.config;
  machines : Machines.t list;
  sim : bool;
  sim_limit : int;
  quarantine : string option;
  shrink : bool;
  deadline_s : float option;
  progress : int;
  log : string -> unit;
}

let default_cfg =
  {
    config = Litmus_gen.default_config;
    machines = Machines.all;
    sim = true;
    sim_limit = 200_000;
    quarantine = None;
    shrink = true;
    deadline_s = None;
    progress = 0;
    log = ignore;
  }

type disagreement = {
  d_seed : int;
  d_check : string;
  d_detail : string;
  d_quarantined : string option;  (* report path, when a dir was given *)
}

type seed_report = {
  sr_checks : int;
  sr_disagreements : (string * string) list;  (* check name, detail *)
  sr_sim_runs : int;
  sr_sim_wedged : int;
  sr_sim_skipped : int;
  sr_states : int;
}

type summary = {
  programs : int;
  checks : int;
  disagreements : disagreement list;
  sim_runs : int;
  sim_wedged : int;  (* blocking programs the simulator legally wedged on *)
  sim_skipped : int;  (* programs with no complete execution *)
  states_total : int;
  wall_s : float;
  suspended : bool;
  next_seed : int;
}

let exit_code s =
  if s.disagreements <> [] then 1 else if s.suspended then 3 else 0

let set_to_string prog s =
  ignore prog;
  Format.asprintf "%a" Final.pp_set s

(* The machine-under-axioms envelope pairs.  ooo, rp3 and rc have no
   axiomatic counterpart here (rp3/rc would need fenced-delays/RA
   models); they are still covered by the SC-subset and theorem
   checks. *)
let envelope_of = function
  | "wbuf" -> Some Models.tso
  | "def1" -> Some Models.def1
  | "def2" -> Some Models.def2
  | _ -> None

(* --- the per-program oracle --------------------------------------------------- *)

let check_prog cfg prog =
  let checks = ref 0 in
  let disagreements = ref [] in
  let sim_runs = ref 0 in
  let sim_wedged = ref 0 in
  let sim_skipped = ref 0 in
  let states = ref 0 in
  let record ~check ~detail =
    disagreements := (check, detail) :: !disagreements
  in
  let check name cond detail =
    incr checks;
    if not (cond ()) then record ~check:name ~detail:(detail ())
  in
  (* Leg 1: the two SC implementations must agree exactly. *)
  let sc_set = Sc.outcomes prog in
  let sc_ax = Models.outcomes Models.sc prog in
  check "sc-axiomatic-vs-operational"
    (fun () -> Final.Set.equal sc_set sc_ax)
    (fun () ->
      Printf.sprintf "operational SC %s vs axiomatic SC %s"
        (set_to_string prog sc_set) (set_to_string prog sc_ax));
  (* The synchronization-model predicates, computed once. *)
  let drf0 = lazy (Drf.obeys ~model:Drf.DRF0 prog) in
  let drf1 = lazy (Drf.obeys ~model:Drf.DRF1 prog) in
  (* Leg 2: every operational machine against SC, its axiomatic
     envelope, and the paper's appears-SC theorem. *)
  let outs_by_name = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let name = Machines.name m in
      let res = Machines.explore m prog in
      states := !states + res.Explore.stats.Explore.states_expanded;
      let outs =
        match res.Explore.result with
        | Explore.Complete out | Explore.Partial out -> out
      in
      Hashtbl.replace outs_by_name name outs;
      check
        (Printf.sprintf "sc-subset-of-%s" name)
        (fun () -> Final.Set.subset sc_set outs)
        (fun () ->
          Printf.sprintf "SC outcome(s) %s missing from %s's set %s"
            (set_to_string prog (Final.Set.diff sc_set outs))
            name (set_to_string prog outs));
      (match envelope_of name with
      | None -> ()
      | Some model ->
          let ax = Models.outcomes model prog in
          check
            (Printf.sprintf "%s-within-%s-axioms" name (Models.name model))
            (fun () -> Final.Set.subset outs ax)
            (fun () ->
              Printf.sprintf "machine outcome(s) %s beyond the axioms %s"
                (set_to_string prog (Final.Set.diff outs ax))
                (set_to_string prog ax)));
      let appears_sc () = Final.Set.subset outs sc_set in
      match name with
      | "def1" | "def2" ->
          check
            (Printf.sprintf "drf0-implies-%s-appears-sc" name)
            (fun () -> (not (Lazy.force drf0)) || appears_sc ())
            (fun () ->
              Printf.sprintf
                "program obeys DRF0 but %s shows non-SC outcome(s) %s" name
                (set_to_string prog (Final.Set.diff outs sc_set)))
      | "def2-rs" | "rc" ->
          check
            (Printf.sprintf "drf1-implies-%s-appears-sc" name)
            (fun () -> (not (Lazy.force drf1)) || appears_sc ())
            (fun () ->
              Printf.sprintf
                "program obeys DRF1 but %s shows non-SC outcome(s) %s" name
                (set_to_string prog (Final.Set.diff outs sc_set)))
      | _ -> ())
    cfg.machines;
  (* Machine hierarchy, when the relevant machines were swept. *)
  let pair lo hi =
    match
      (Hashtbl.find_opt outs_by_name lo, Hashtbl.find_opt outs_by_name hi)
    with
    | Some a, Some b ->
        check
          (Printf.sprintf "%s-subset-of-%s" lo hi)
          (fun () -> Final.Set.subset a b)
          (fun () ->
            Printf.sprintf "%s outcome(s) %s missing from %s" lo
              (set_to_string prog (Final.Set.diff a b))
              hi)
    | _ -> ()
  in
  pair "def1" "def2";
  pair "def2" "def2-rs";
  (* Leg 3: the timing simulator.  One deterministic run per policy;
     its final state must be in the policy's guaranteed envelope.
     Blocking programs may legally wedge (the simulator's fixed timing
     can miss an await's window even when some SC interleaving
     completes); non-blocking ones never. *)
  if cfg.sim then begin
    if not (Litmus_gen.has_complete_execution prog) then incr sim_skipped
    else
      let blocking =
        List.exists (List.exists Instr.is_blocking) (Prog.threads prog)
      in
      List.iter
        (fun policy ->
          let pname = Cpu.policy_name policy in
          incr sim_runs;
          match Sim_litmus.try_run ~limit:cfg.sim_limit policy prog with
          | Ok run ->
              let must_be_sc =
                match policy with
                | Cpu.Sc -> true
                | Cpu.Def1 | Cpu.Def2 -> Lazy.force drf0
                | Cpu.Def2_rs -> Lazy.force drf1
                | Cpu.Def2_noresv -> false
              in
              if must_be_sc then
                check
                  (Printf.sprintf "sim-%s-final-in-sc" pname)
                  (fun () ->
                    Sim_litmus.in_set prog run.Sim_litmus.final sc_set)
                  (fun () ->
                    Format.asprintf
                      "simulator final %a is outside the SC set %s"
                      Final.pp run.Sim_litmus.final
                      (set_to_string prog sc_set))
              else incr checks
          | Error (Sim_run.Deadlock _ | Sim_run.Livelock _) when blocking ->
              incr sim_wedged
          | Error f ->
              let what =
                match f with
                | Sim_run.Deadlock d -> "deadlock: " ^ d
                | Sim_run.Livelock d -> "livelock: " ^ d
                | Sim_run.Invariant d -> "invariant violation: " ^ d
              in
              record
                ~check:(Printf.sprintf "sim-%s-run" pname)
                ~detail:what)
        Cpu.all_policies
  end;
  {
    sr_checks = !checks;
    sr_disagreements = List.rev !disagreements;
    sr_sim_runs = !sim_runs;
    sr_sim_wedged = !sim_wedged;
    sr_sim_skipped = !sim_skipped;
    sr_states = !states;
  }

let check_seed cfg seed =
  let prog = Litmus_gen.generate ~config:cfg.config seed in
  (prog, check_prog cfg prog)

(* --- shrinking ---------------------------------------------------------------- *)

(* A minimization predicate must re-run the oracle without the campaign
   plumbing: no quarantine writes, no shrinking recursion, no logging —
   just "does the named relation still fail on this candidate". *)
let still_fails cfg ~check prog =
  let probe_cfg =
    { cfg with quarantine = None; shrink = false; progress = 0; log = ignore }
  in
  let r = check_prog probe_cfg prog in
  List.exists (fun (c, _) -> String.equal c check) r.sr_disagreements

let minimize cfg ~check prog =
  if not cfg.shrink then None
  else
    match Shrink.ddmin ~pred:(still_fails cfg ~check) prog with
    | minimal, st ->
        cfg.log
          (Printf.sprintf
             "shrink [%s]: %d -> %d instruction(s) in %d predicate run(s)%s"
             check
             (Shrink.instr_count prog)
             (Shrink.instr_count minimal)
             st.Shrink.s_tests
             (if st.Shrink.s_gave_up then " (budget exhausted)" else ""));
        Some minimal
    | exception Invalid_argument _ ->
        (* The failure did not reproduce under the probe config (e.g. a
           nondeterministic engine bug).  The dossier still ships the
           full program; minimization is best-effort. *)
        None

(* --- quarantine --------------------------------------------------------------- *)

let quarantine_seed ?minimal cfg ~seed ~prog ~check ~detail =
  match cfg.quarantine with
  | None -> None
  | Some dir ->
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let base = Filename.concat dir (Printf.sprintf "seed%d" seed) in
      let litmus = base ^ ".litmus" in
      let report = base ^ ".report" in
      Atomic_io.write_file litmus (Litmus_print.to_string prog);
      let minimal_line =
        match minimal with
        | None -> []
        | Some m ->
            Atomic_io.write_file (base ^ ".min.litmus")
              (Litmus_print.to_string m);
            [
              Printf.sprintf
                "minimal reproducer: seed%d.min.litmus (%d of %d \
                 instruction(s))"
                seed (Shrink.instr_count m) (Shrink.instr_count prog);
            ]
      in
      let recipe_flags = Litmus_gen.config_args cfg.config in
      Atomic_io.write_file report
        (String.concat "\n"
           ([
              Printf.sprintf "seed: %d" seed;
              Printf.sprintf "check: %s" check;
              Printf.sprintf "detail: %s" detail;
              (* The generator flag set in effect, spelled out even when
                 empty: a dossier produced under a non-default profile
                 must replay under that profile, not the default. *)
              Printf.sprintf "gen flags: %s"
                (if recipe_flags = "" then "(default)" else recipe_flags);
              Printf.sprintf "gen config: %s"
                (Format.asprintf "%a" Litmus_gen.pp_config cfg.config);
            ]
           @ minimal_line
           @ [
               "";
               "reproduce the program:";
               Printf.sprintf "  weakord gen --seed %d%s" seed
                 (if recipe_flags = "" then "" else " " ^ recipe_flags);
               "re-run this oracle on just this seed:";
               Printf.sprintf "  weakord fuzz --seeds %d..%d%s" seed seed
                 (if recipe_flags = "" then "" else " " ^ recipe_flags);
               "";
             ]));
      Some report

(* --- the campaign loop -------------------------------------------------------- *)

let run cfg ~lo ~hi =
  if lo > hi then invalid_arg "Fuzz.run: empty seed range";
  let t0 = Unix.gettimeofday () in
  let deadline_at = Option.map (fun d -> t0 +. d) cfg.deadline_s in
  let programs = ref 0 in
  let checks = ref 0 in
  let disagreements = ref [] in
  let sim_runs = ref 0 in
  let sim_wedged = ref 0 in
  let sim_skipped = ref 0 in
  let states_total = ref 0 in
  let next_seed = ref lo in
  let suspended = ref false in
  let record_disagreement ~seed ~prog ~check ~detail =
    let minimal = minimize cfg ~check prog in
    let q = quarantine_seed ?minimal cfg ~seed ~prog ~check ~detail in
    cfg.log
      (Printf.sprintf "DISAGREEMENT seed %d [%s]: %s%s" seed check detail
         (match q with Some p -> " (quarantined: " ^ p ^ ")" | None -> ""));
    disagreements :=
      { d_seed = seed; d_check = check; d_detail = detail; d_quarantined = q }
      :: !disagreements
  in
  let seed = ref lo in
  (try
     while !seed <= hi do
       (match deadline_at with
       | Some d when Unix.gettimeofday () > d ->
           suspended := true;
           next_seed := !seed;
           raise Exit
       | _ -> ());
       let s = !seed in
       let prog, r = check_seed cfg s in
       incr programs;
       checks := !checks + r.sr_checks;
       sim_runs := !sim_runs + r.sr_sim_runs;
       sim_wedged := !sim_wedged + r.sr_sim_wedged;
       sim_skipped := !sim_skipped + r.sr_sim_skipped;
       states_total := !states_total + r.sr_states;
       List.iter
         (fun (check, detail) ->
           record_disagreement ~seed:s ~prog ~check ~detail)
         r.sr_disagreements;
       if cfg.progress > 0 && (!programs mod cfg.progress) = 0 then
         cfg.log
           (Printf.sprintf
              "fuzz: %d/%d program(s), %d check(s), %d disagreement(s), %d \
               state(s), %.0f states/s"
              !programs (hi - lo + 1) !checks
              (List.length !disagreements)
              !states_total
              (let w = Unix.gettimeofday () -. t0 in
               if w > 0. then float_of_int !states_total /. w else 0.));
       incr seed;
       next_seed := !seed
     done
   with Exit -> ());
  {
    programs = !programs;
    checks = !checks;
    disagreements = List.rev !disagreements;
    sim_runs = !sim_runs;
    sim_wedged = !sim_wedged;
    sim_skipped = !sim_skipped;
    states_total = !states_total;
    wall_s = Unix.gettimeofday () -. t0;
    suspended = !suspended;
    next_seed = !next_seed;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "fuzz: %d program(s), %d oracle check(s), %d disagreement(s)@\n\
     sim: %d run(s), %d legal wedge(s) on blocking programs, %d skipped \
     (no complete execution)@\n\
     %d state(s) expanded, wall %.1fs, %.0f states/s%s"
    s.programs s.checks
    (List.length s.disagreements)
    s.sim_runs s.sim_wedged s.sim_skipped s.states_total s.wall_s
    (if s.wall_s > 0. then float_of_int s.states_total /. s.wall_s else 0.)
    (if s.suspended then
       Format.asprintf " — SUSPENDED at seed %d (deadline)" s.next_seed
     else "")
