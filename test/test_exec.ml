(* Tests for event structures and the SC interleaver. *)

open Instr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prog_of e = e.Litmus_classics.prog

(* --- Evts ---------------------------------------------------------------- *)

let test_evts_structure () =
  let evts = Evts.of_prog (prog_of Litmus_classics.dekker) in
  check_int "4 events" 4 (Evts.size evts);
  check_int "2 procs" 2 (Evts.num_procs evts);
  let po = Evts.po evts in
  check "po within P0" true (Rel.mem po 0 1);
  check "no po across procs" false (Rel.mem po 0 2 || Rel.mem po 2 0);
  check_int "2 reads" 2 (List.length (Evts.reads evts));
  check_int "2 writes" 2 (List.length (Evts.writes evts))

let test_evts_po_closed () =
  let p = Prog.make ~name:"chain3" [ [ write "a" 1; write "b" 1; write "c" 1 ] ] in
  let po = Evts.po (Evts.of_prog p) in
  check "po transitively closed" true (Rel.mem po 0 2)

let test_conflicting_pairs () =
  let evts = Evts.of_prog (prog_of Litmus_classics.dekker) in
  (* W x (e0) conflicts with R x (e3); W y (e2) conflicts with R y (e1). *)
  let pairs = Evts.conflicting_pairs evts in
  check_int "two conflicts" 2 (List.length pairs);
  check "wx-rx" true (List.mem (0, 3) pairs);
  check "wy-ry" true (List.mem (1, 2) pairs)

let test_conflicts_exclude_read_read () =
  let p =
    Prog.make ~name:"rr" [ [ read "x" "r0" ]; [ read "x" "r1" ] ]
  in
  check_int "no read-read conflict" 0
    (List.length (Evts.conflicting_pairs (Evts.of_prog p)))

let test_rmw_conflicts_with_read () =
  let p =
    Prog.make ~name:"rmwr" [ [ test_and_set "l" "r0" ]; [ read "l" "r1" ] ]
  in
  check_int "rmw conflicts with read" 1
    (List.length (Evts.conflicting_pairs (Evts.of_prog p)))

let test_deps () =
  let p =
    Prog.make ~name:"dep"
      [ [ read "x" "r"; store "y" (Exp.Reg "r"); write "z" 1 ] ]
  in
  let deps = Evts.deps (Evts.of_prog p) in
  check "store depends on load" true (Rel.mem deps 0 1);
  check "independent write free" false (Rel.mem deps 0 2 || Rel.mem deps 1 2)

let test_syncs_of_loc () =
  let evts = Evts.of_prog (prog_of Litmus_classics.mp_sync) in
  check_int "two syncs on f" 2 (List.length (Evts.syncs_of_loc evts "f"));
  check_int "no syncs on x" 0 (List.length (Evts.syncs_of_loc evts "x"))

(* --- SC outcomes --------------------------------------------------------- *)

let outcomes e = Sc.outcomes (prog_of e)
let sc_allows e = Option.get (Machines.allows_exists Machines.sc (prog_of e))

let test_sc_forbids_dekker () =
  check "dekker non-SC outcome forbidden" false
    (sc_allows Litmus_classics.dekker);
  (* And the three SC outcomes are all present: 10, 01, 11 of (r0,r1). *)
  check_int "three outcomes" 3 (Final.Set.cardinal (outcomes Litmus_classics.dekker))

let test_sc_mp () =
  check "mp stale read forbidden under SC" false
    (sc_allows Litmus_classics.mp)

let test_sc_await_blocks () =
  (* With the await, the consumer must see the flag and then the data. *)
  let s = outcomes Litmus_classics.mp_sync in
  check_int "single outcome" 1 (Final.Set.cardinal s);
  let f = Final.Set.choose s in
  Alcotest.(check (option int)) "r1 = 1" (Some 1) (Final.reg f 1 "r1")

let test_sc_lock_mutex () =
  let s = outcomes Litmus_classics.lock_mutex in
  check "x=2 in every outcome" true
    (Final.Set.for_all (fun f -> Final.mem f "x" = 2) s)

let test_sc_lock_race_loses_update () =
  check "unlocked increment can be lost under SC" true
    (sc_allows Litmus_classics.lock_race)

let test_sc_rmw_atomic () =
  check "both TAS cannot win" false
    (sc_allows Litmus_classics.tas_atomicity)

let test_sc_handoff () =
  let s = outcomes Litmus_classics.fig3_handoff in
  check_int "handoff deterministic" 1 (Final.Set.cardinal s);
  check "consumer sees data" true
    (Final.Set.for_all (fun f -> Final.reg f 1 "r" = Some 1) s)

let test_sc_iriw_outcome_count () =
  (* IRIW under SC: exhaustive enumeration must agree with first principles —
     the forbidden outcome is excluded. *)
  check "iriw forbidden" false
    (sc_allows Litmus_classics.iriw)

let test_trace_count_two_by_two () =
  (* Two threads of two instructions each: C(4,2) = 6 interleavings. *)
  check_int "6 traces" 6 (Sc.count_traces (prog_of Litmus_classics.dekker))

let test_traces_are_po_respecting () =
  let prog = prog_of Litmus_classics.dekker in
  let evts = Evts.of_prog prog in
  let po = Evts.po evts in
  Sc.iter_traces prog (fun trace _ ->
      let pos = Array.make (Evts.size evts) 0 in
      List.iteri (fun i e -> pos.(e) <- i) trace;
      Rel.iter (fun a b -> check "po respected" true (pos.(a) < pos.(b))) po)

let test_traces_cover_outcomes () =
  (* The finals seen by iter_traces equal the memoized outcome set. *)
  let prog = prog_of Litmus_classics.lb in
  let via_traces = ref Final.Set.empty in
  Sc.iter_traces prog (fun _ f -> via_traces := Final.Set.add f !via_traces);
  check "trace finals = outcomes" true
    (Final.Set.equal !via_traces (Sc.outcomes prog))

let test_deadlock_paths_excluded () =
  (* An await that can never succeed yields no outcome at all. *)
  let p = Prog.make ~name:"stuck" [ [ await "f" 1 ] ] in
  check_int "no outcomes" 0 (Final.Set.cardinal (Sc.outcomes p))

let test_hb_chain_sc () =
  let s = outcomes Litmus_classics.hb_chain in
  check "chain delivers x" true
    (Final.Set.for_all (fun f -> Final.reg f 2 "r" = Some 1) s)

(* --- Properties ---------------------------------------------------------- *)

let arbitrary_classic =
  QCheck.make
    ~print:(fun e -> Prog.name e.Litmus_classics.prog)
    (QCheck.Gen.oneofl Litmus_classics.all)

let prop_sc_expectations =
  QCheck.Test.make ~name:"corpus SC expectations hold" ~count:(List.length Litmus_classics.all)
    arbitrary_classic
    (fun e ->
      match Machines.allows_exists Machines.sc e.Litmus_classics.prog with
      | Some allowed -> allowed = e.Litmus_classics.sc_allows
      | None -> true)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "exec",
    [
      t "event structure" test_evts_structure;
      t "po transitively closed" test_evts_po_closed;
      t "conflicting pairs" test_conflicting_pairs;
      t "read-read never conflicts" test_conflicts_exclude_read_read;
      t "rmw conflicts with read" test_rmw_conflicts_with_read;
      t "register dependencies" test_deps;
      t "syncs per location" test_syncs_of_loc;
      t "SC forbids dekker outcome" test_sc_forbids_dekker;
      t "SC forbids mp stale read" test_sc_mp;
      t "await forces flag order" test_sc_await_blocks;
      t "lock mutex counts correctly" test_sc_lock_mutex;
      t "lockless increment races" test_sc_lock_race_loses_update;
      t "RMW atomicity" test_sc_rmw_atomic;
      t "fig3 handoff" test_sc_handoff;
      t "iriw forbidden" test_sc_iriw_outcome_count;
      t "trace count" test_trace_count_two_by_two;
      t "traces respect po" test_traces_are_po_respecting;
      t "traces cover outcomes" test_traces_cover_outcomes;
      t "deadlocked await has no outcomes" test_deadlock_paths_excluded;
      t "hb chain delivers" test_hb_chain_sc;
      QCheck_alcotest.to_alcotest prop_sc_expectations;
    ] )
