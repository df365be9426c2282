(* Tests for happens-before, synchronization orders, and the DRF0/DRF1
   checkers. *)

open Instr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prog_of e = e.Litmus_classics.prog

(* --- Hb ------------------------------------------------------------------ *)

let test_so_of_trace () =
  let p = prog_of Litmus_classics.dekker_sync in
  let evts = Evts.of_prog p in
  (* Events: 0 = Ws x (P0), 1 = Rs y (P0), 2 = Ws y (P1), 3 = Rs x (P1). *)
  let so = Hb.so_of_trace evts [ 0; 1; 2; 3 ] in
  check "Wsx so Rsx" true (Rel.mem so 0 3);
  check "Rsy so Wsy" true (Rel.mem so 1 2);
  check "no cross-location so" false (Rel.mem so 0 2)

let test_hb_transitive () =
  let p = prog_of Litmus_classics.hb_chain in
  let evts = Evts.of_prog p in
  (* 0 = W x (P0), 1 = Ws s, 2 = Await s (P1), 3 = Ws t, 4 = Await t (P2),
     5 = R x.  Trace in program order: the so edges chain through s and t. *)
  let so = Hb.so_of_trace evts [ 0; 1; 2; 3; 4; 5 ] in
  let hb = Hb.hb evts ~so in
  check "W x hb R x through two sync locations" true (Rel.mem hb 0 5)

let test_hb1_drops_read_release () =
  let p = prog_of Litmus_classics.read_sync_release in
  let evts = Evts.of_prog p in
  (* 0 = W x, 1 = Await s 0 (sync read), 2 = Ws s 1, 3 = R x. *)
  let so = Hb.so_of_trace evts [ 0; 1; 2; 3 ] in
  check "hb orders W x before R x" true (Rel.mem (Hb.hb evts ~so) 0 3);
  check "hb1 does not (read-only release dropped)" false
    (Rel.mem (Hb.hb1 evts ~so) 0 3)

(* --- Sync_orders ---------------------------------------------------------- *)

let test_sync_orders_counts () =
  (* dekker_sync: one sync write and one sync read per location.  Of the
     2 x 2 per-location orderings, the one putting both reads before both
     writes contradicts program order (a cycle), so 3 are realizable. *)
  check_int "dekker_sync" 3 (Sync_orders.count (prog_of Litmus_classics.dekker_sync));
  (* mp_sync: the await can only complete after the sync write: 1 tuple. *)
  check_int "mp_sync" 1 (Sync_orders.count (prog_of Litmus_classics.mp_sync));
  (* no syncs at all: exactly one (empty) tuple. *)
  check_int "dekker" 1 (Sync_orders.count (prog_of Litmus_classics.dekker))

let test_sync_orders_blocking_pruned () =
  (* read_sync_release: Await s 0 must complete before Ws s 1; only one
     order of the two sync ops on s is realizable. *)
  check_int "await prunes" 1
    (Sync_orders.count (prog_of Litmus_classics.read_sync_release))

let test_sync_orders_to_so () =
  let p = prog_of Litmus_classics.mp_sync in
  let evts = Evts.of_prog p in
  match Sync_orders.feasible p with
  | [ tuple ] ->
      let so = Sync_orders.to_so evts tuple in
      (* 1 = Ws f (P0), 2 = Await f (P1): the only so edge. *)
      check "so edge Ws->Await" true (Rel.mem so 1 2);
      check_int "exactly one pair" 1 (Rel.cardinal so)
  | other -> Alcotest.failf "expected 1 tuple, got %d" (List.length other)

(* --- Drf0 / Drf1 expectations --------------------------------------------- *)

let test_corpus_drf0 () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s drf0" (Prog.name (prog_of e)))
        e.Litmus_classics.drf0 (Drf.obeys (prog_of e)))
    Litmus_classics.all

let test_corpus_drf1 () =
  (* DRF1 agrees with DRF0 on the whole corpus except read_sync_release,
     whose only happens-before path runs through a read-only sync release —
     the paper's "does not compromise on the generality" claim. *)
  List.iter
    (fun e ->
      let p = prog_of e in
      let expected =
        e.Litmus_classics.drf0
        && not (String.equal (Prog.name p) "read_sync_release")
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s drf1" (Prog.name p))
        expected
        (Drf.obeys ~model:Drf.DRF1 p))
    Litmus_classics.all

let test_naive_agrees () =
  (* The sync-order checker agrees with the literal Definition 3 checker on
     every corpus program, for both models. *)
  List.iter
    (fun e ->
      let p = prog_of e in
      check (Prog.name p ^ " drf0 naive") true
        (Drf.obeys p = Drf.obeys_naive p);
      check (Prog.name p ^ " drf1 naive") true
        (Drf.obeys ~model:Drf.DRF1 p = Drf.obeys_naive ~model:Drf.DRF1 p))
    Litmus_classics.all

(* [obeys] decides without listing races, and skips the sync-order search
   when a race is certain; its verdict must be exactly "no race witness"
   from the reference [races], under both models.  Generated programs are
   taken as generated, deadlocking ones included. *)
let test_obeys_equals_no_races () =
  let generated =
    List.concat_map
      (fun profile ->
        let config = { Litmus_gen.default_config with Litmus_gen.profile } in
        List.init 1000 (fun seed -> Litmus_gen.generate ~config seed))
      Litmus_gen.all_profiles
  in
  let corpus =
    List.map prog_of
      (Litmus_classics.all @ [ Litmus_classics.big3; Litmus_classics.big4 ])
    @ generated
  in
  List.iter
    (fun p ->
      List.iter
        (fun model ->
          if Drf.obeys ~model p <> (Drf.races ~model p = []) then
            Alcotest.failf "obeys <> (races = []) under %a on %s:@.%a"
              Drf.pp_model model (Prog.name p) Prog.pp p)
        [ Drf.DRF0; Drf.DRF1 ])
    corpus

let test_certain_race_skips_search () =
  (* big5 has no synchronization: its data races are unordered under every
     sync order, so the verdict needs no walk of its SC state space. *)
  let t0 = Sys.time () in
  check "big5 violates DRF0" false (Drf.obeys (prog_of Litmus_classics.big5));
  check "without a state-space search" true (Sys.time () -. t0 < 1.0);
  (* big4 has no sync operations: the search finds only the empty order. *)
  check "big4 has one empty sync order" true
    (Sync_orders.feasible (prog_of Litmus_classics.big4) = [ [] ])

let test_race_witness () =
  match Drf.check (prog_of Litmus_classics.mp) with
  | Ok () -> Alcotest.fail "mp should race"
  | Error races ->
      check "witnesses exist" true (races <> []);
      (* Every witness involves a data access pair on a shared location. *)
      List.iter
        (fun r ->
          check "conflicting" true (Event.conflicts r.Drf.e1 r.Drf.e2);
          check "different procs" true
            (r.Drf.e1.Event.proc <> r.Drf.e2.Event.proc))
        races

let test_sync_sync_pairs_not_races () =
  (* Two conflicting sync writes are not a data race (DRF1 definition;
     equivalent for DRF0). *)
  let p =
    Prog.make ~name:"ss" [ [ sync_write "s" 1 ]; [ sync_write "s" 2 ] ]
  in
  check "all-sync conflict is no race" true (Drf.obeys ~model:Drf.DRF1 p);
  check "and obeys DRF0" true (Drf.obeys p)

(* --- Figure 2 ------------------------------------------------------------- *)

(* The paper's Figure 2 shows two executions on the idealized architecture:
   (a) obeys DRF0 (all conflicting accesses hb-ordered), (b) does not (P0's
   accesses conflict with P1's write unordered; P2's and P4's writes
   conflict unordered).  The published figure's exact layout is ambiguous in
   our source text, so we reconstruct executions with the same structure and
   check them with the per-trace analysis, which is what the figure
   depicts. *)

let fig2a_prog = Litmus_classics.fig2a_execution

let test_fig2a_obeys () =
  check "fig2a obeys DRF0" true (Drf.obeys fig2a_prog);
  (* And each individual SC execution passes the per-trace check. *)
  let evts = Evts.of_prog fig2a_prog in
  Sc.iter_traces fig2a_prog (fun trace _ ->
      check "trace race-free" true (Drf.trace_obeys evts trace))

let fig2b_prog = Litmus_classics.fig2b_execution

let test_fig2b_races () =
  check "fig2b violates DRF0" false (Drf.obeys fig2b_prog);
  let races = Drf.races fig2b_prog in
  let involves l1 l2 =
    List.exists
      (fun r ->
        let locs = (r.Drf.e1.Event.loc, r.Drf.e2.Event.loc) in
        locs = (Some l1, Some l2) || locs = (Some l2, Some l1))
      races
  in
  check "race on y (P0 vs P1)" true (involves "y" "y");
  check "race on z (P2 vs P4)" true (involves "z" "z")

let test_trace_detection_is_per_execution () =
  (* Dynamic detection depends on the trace: mp's racy accesses are
     reported on every trace, because no sync exists to order them. *)
  let p = prog_of Litmus_classics.mp in
  let evts = Evts.of_prog p in
  Sc.iter_traces p (fun trace _ ->
      check "mp trace always racy" false (Drf.trace_obeys evts trace))

(* --- Properties ------------------------------------------------------------ *)

let arbitrary_classic =
  QCheck.make
    ~print:(fun e -> Prog.name e.Litmus_classics.prog)
    (QCheck.Gen.oneofl Litmus_classics.all)

let prop_drf1_weaker_than_drf0 =
  (* Anything DRF1 would accept with the full so it accepts with fewer
     obligations: DRF0 ⊆ DRF1's accepted set is NOT true in general; what
     holds is that hb1 ⊆ hb, so a DRF1-race-free program is DRF0-race-free
     only if... in fact hb1 ⊆ hb gives: DRF1-clean ⇒ DRF0-clean. *)
  QCheck.Test.make ~name:"DRF1-clean implies DRF0-clean" ~count:(List.length Litmus_classics.all)
    arbitrary_classic
    (fun e ->
      let p = e.Litmus_classics.prog in
      (not (Drf.obeys ~model:Drf.DRF1 p)) || Drf.obeys p)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "drf",
    [
      t "so of trace" test_so_of_trace;
      t "hb transitive chain" test_hb_transitive;
      t "hb1 drops read-only releases" test_hb1_drops_read_release;
      t "sync order counts" test_sync_orders_counts;
      t "blocking prunes sync orders" test_sync_orders_blocking_pruned;
      t "sync order to so" test_sync_orders_to_so;
      t "corpus DRF0 expectations" test_corpus_drf0;
      t "corpus DRF1 expectations" test_corpus_drf1;
      t "checker agrees with naive Definition 3" test_naive_agrees;
      t "obeys = no race witnesses" test_obeys_equals_no_races;
      t "a certain race skips the search" test_certain_race_skips_search;
      t "race witnesses" test_race_witness;
      t "sync/sync pairs are not races" test_sync_sync_pairs_not_races;
      t "figure 2a obeys DRF0" test_fig2a_obeys;
      t "figure 2b races" test_fig2b_races;
      t "per-trace detection" test_trace_detection_is_per_execution;
      QCheck_alcotest.to_alcotest prop_drf1_weaker_than_drf0;
    ] )
