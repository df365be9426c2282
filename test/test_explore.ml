(* Differential tests for the exploration engine: the parallel frontier
   sweep and the SC partial-order reduction must be invisible in the
   results — outcome sets identical to the sequential, unreduced
   baselines over the whole corpus, and fuel-bounded runs always sound
   subsets whatever the domain count. *)

let check = Alcotest.(check bool)

let corpus = List.map (fun e -> e.Litmus_classics.prog) Litmus_classics.all

let domain_counts =
  let base = [ 2; 4 ] in
  match Sys.getenv_opt "WEAKORD_TEST_JOBS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 && not (List.mem n base) -> base @ [ n ]
      | _ -> base)

let set_eq = Final.Set.equal

(* --- parallel sweep == sequential sweep ------------------------------------ *)

let test_parallel_matches_sequential () =
  List.iter
    (fun prog ->
      List.iter
        (fun m ->
          let seq = Machines.explore ~domains:1 m prog in
          let seq_set = Explore.bounded_value seq.Explore.result in
          check
            (Printf.sprintf "%s/%s sequential complete" (Prog.name prog)
               (Machines.name m))
            true
            (Explore.is_complete seq.Explore.result);
          List.iter
            (fun domains ->
              (* [~adaptive:false]: on a small host the adaptive fallback
                 would quietly run these sequentially; the point here is
                 the genuinely parallel engine. *)
              let par = Machines.explore ~domains ~adaptive:false m prog in
              check
                (Printf.sprintf "%s/%s complete at %d domains"
                   (Prog.name prog) (Machines.name m) domains)
                true
                (Explore.is_complete par.Explore.result);
              check
                (Printf.sprintf "%s/%s outcomes equal at %d domains"
                   (Prog.name prog) (Machines.name m) domains)
                true
                (set_eq seq_set
                   (Explore.bounded_value par.Explore.result));
              (* Each state is claimed exactly once, so a complete sweep
                 expands the same number of states however many domains
                 raced for them. *)
              Alcotest.(check int)
                (Printf.sprintf "%s/%s states_expanded at %d domains"
                   (Prog.name prog) (Machines.name m) domains)
                seq.Explore.stats.Explore.states_expanded
                par.Explore.stats.Explore.states_expanded)
            domain_counts)
        Machines.all)
    corpus

(* --- fuel stays sound under parallelism ------------------------------------ *)

let test_fuel_sound_across_domains () =
  let progs =
    List.filter
      (fun p ->
        List.mem (Prog.name p) [ "dekker"; "iriw"; "mp"; "lock_mutex" ])
      corpus
  in
  List.iter
    (fun prog ->
      List.iter
        (fun m ->
          let full =
            Explore.bounded_value
              (Machines.explore ~domains:1 m prog).Explore.result
          in
          List.iter
            (fun fuel ->
              List.iter
                (fun domains ->
                  let r = Machines.explore ~domains ~fuel m prog in
                  match r.Explore.result with
                  | Explore.Complete s ->
                      check
                        (Printf.sprintf
                           "%s/%s complete@fuel %d, %d domains = full"
                           (Prog.name prog) (Machines.name m) fuel domains)
                        true (set_eq s full)
                  | Explore.Partial s ->
                      check
                        (Printf.sprintf
                           "%s/%s partial@fuel %d, %d domains subset"
                           (Prog.name prog) (Machines.name m) fuel domains)
                        true
                        (Final.Set.subset s full))
                (1 :: domain_counts))
            [ 0; 1; 7; 50; 100_000 ])
        [ Machines.wbuf; Machines.def2 ])
    progs

(* --- partial-order reduction ------------------------------------------------ *)

let gen_progs =
  (* Deterministic random programs; the generator's defaults include sync
     accesses, RMWs and awaits, so the never-commute cases are covered. *)
  List.filter_map
    (fun seed -> Litmus_gen.generate_live ~max_attempts:20 seed)
    (List.init 40 Fun.id)

let test_por_outcomes_identical () =
  List.iter
    (fun prog ->
      let full, full_states = Sc.explore ~reduce:false prog in
      let red, red_states = Sc.explore ~reduce:true prog in
      check
        (Printf.sprintf "%s: reduced SC outcomes identical" (Prog.name prog))
        true (set_eq full red);
      check
        (Printf.sprintf "%s: reduction never visits more states"
           (Prog.name prog))
        true
        (red_states <= full_states))
    (corpus @ gen_progs)

let test_por_traces_cover_outcomes () =
  (* A reduced trace enumeration visits one representative per commutation
     class — fewer traces, same final states. *)
  List.iter
    (fun prog ->
      let finals_of reduce =
        let acc = ref Final.Set.empty in
        Sc.iter_traces ~reduce prog (fun _ f -> acc := Final.Set.add f !acc);
        !acc
      in
      check
        (Printf.sprintf "%s: reduced traces reach the same finals"
           (Prog.name prog))
        true
        (set_eq (finals_of false) (finals_of true));
      check
        (Printf.sprintf "%s: no more reduced traces than full"
           (Prog.name prog))
        true
        (Sc.count_traces ~reduce:true prog
        <= Sc.count_traces ~reduce:false prog))
    corpus

(* --- machine-level partial-order reduction ---------------------------------- *)

(* corpus x machines x {por, no-por} x {seq, par}: the oracle must be
   invisible in the outcome sets and never expand more states than the
   full sweep.  [~por_min_instrs:0] forces the oracle machinery on even
   for litmus-sized programs (the production default skips them);
   [~adaptive:false] forces the genuinely parallel engine (ample-only —
   sleep sets are schedule-dependent) instead of the single-core
   fallback. *)
let test_machine_por_differential () =
  List.iter
    (fun prog ->
      List.iter
        (fun m ->
          let base = Machines.explore ~domains:1 ~reduce:false m prog in
          let base_set = Explore.bounded_value base.Explore.result in
          let base_states = base.Explore.stats.Explore.states_expanded in
          List.iter
            (fun (label, domains, adaptive) ->
              let r =
                Machines.explore ~domains ~adaptive ~reduce:true
                  ~por_min_instrs:0 m prog
              in
              check
                (Printf.sprintf "%s/%s %s reduced complete" (Prog.name prog)
                   (Machines.name m) label)
                true
                (Explore.is_complete r.Explore.result);
              check
                (Printf.sprintf "%s/%s %s reduced outcomes identical"
                   (Prog.name prog) (Machines.name m) label)
                true
                (set_eq base_set (Explore.bounded_value r.Explore.result));
              check
                (Printf.sprintf "%s/%s %s reduced expands no more states"
                   (Prog.name prog) (Machines.name m) label)
                true
                (r.Explore.stats.Explore.states_expanded <= base_states))
            [ ("seq", 1, true); ("par2", 2, false); ("par4", 4, false) ])
        Machines.all)
    (corpus @ gen_progs)

(* The tentpole's quantitative claim, pinned: on the bench harness's
   big3 workload (12 instructions — above the production threshold, so
   plain defaults engage the oracle) wbuf, ooo and def2 all shed at
   least 30% of their states with identical outcome sets. *)
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

let test_big3_reduction_ratio () =
  List.iter
    (fun m ->
      let un = Machines.explore ~reduce:false m big3 in
      let red = Machines.explore m big3 in
      let un_states = un.Explore.stats.Explore.states_expanded in
      let red_states = red.Explore.stats.Explore.states_expanded in
      check
        (Printf.sprintf "big3/%s reduction engaged" (Machines.name m))
        true red.Explore.stats.Explore.por_enabled;
      check
        (Printf.sprintf "big3/%s outcomes identical" (Machines.name m))
        true
        (set_eq
           (Explore.bounded_value un.Explore.result)
           (Explore.bounded_value red.Explore.result));
      check
        (Printf.sprintf "big3/%s >=30%% fewer states (%d vs %d)"
           (Machines.name m) red_states un_states)
        true
        (float_of_int red_states <= 0.7 *. float_of_int un_states))
    [ Machines.wbuf; Machines.ooo; Machines.def2 ]

(* --- the knobs compose ------------------------------------------------------ *)

let test_verify_jobs_agree () =
  (* Definition 2 verdicts cannot depend on the domain count. *)
  let model = Weak_ordering.drf0 in
  List.iter
    (fun m ->
      let report domains =
        Weak_ordering.verify
          ~hw:(Weak_ordering.of_machine ~domains m)
          ~model corpus
      in
      let r1 = report 1 and r4 = report 4 in
      Alcotest.(check (list bool))
        (Printf.sprintf "%s: verdicts independent of domains"
           (Machines.name m))
        (List.map (fun v -> v.Weak_ordering.ok) r1.Weak_ordering.verdicts)
        (List.map (fun v -> v.Weak_ordering.ok) r4.Weak_ordering.verdicts))
    [ Machines.wbuf; Machines.def2; Machines.rc ]

let suite =
  ( "explore",
    [
      Alcotest.test_case "parallel sweep matches sequential" `Quick
        test_parallel_matches_sequential;
      Alcotest.test_case "fuel sound across domain counts" `Quick
        test_fuel_sound_across_domains;
      Alcotest.test_case "POR outcomes identical" `Quick
        test_por_outcomes_identical;
      Alcotest.test_case "POR traces cover outcomes" `Quick
        test_por_traces_cover_outcomes;
      Alcotest.test_case "machine POR differential sweep" `Quick
        test_machine_por_differential;
      Alcotest.test_case "big3 reduction ratio" `Quick
        test_big3_reduction_ratio;
      Alcotest.test_case "verify independent of --jobs" `Quick
        test_verify_jobs_agree;
    ] )
