(* Symmetry reduction: the automorphism group, the machines' [permute]
   implementations, orbit canonicalization, the sym/no-sym differential,
   and the syntactic program canonicalizer behind the batch service's
   symmetry cache key.

   The load-bearing properties:
   - orbit canonicalization is idempotent and constant on orbits (that is
     what makes the transposition-table probe sound);
   - every automorphism permutes the reachable key set (the machine-level
     [permute] really is an automorphism of the transition graph);
   - outcome sets are identical with the reduction on and off, and the
     reduced sweep never expands more states;
   - [Prog_canon.text] is invariant under thread permutation and
     location/register renaming, and distinguishes non-isomorphic
     programs. *)

let prog_of name =
  (Option.get (Litmus_classics.find name)).Litmus_classics.prog

(* --- machine-level orbit properties ---------------------------------- *)

module Probe (M : Machine_sig.MACHINE) = struct
  module H = Hashtbl.Make (struct
    type t = M.key

    let equal = M.equal
    let hash = M.hash
  end)

  (* Raw BFS (no reduction): the full reachable key set, or a prefix if
     the cap is hit.  The pointwise properties below hold on any prefix;
     the image-closure check needs the full set and is skipped on
     truncation. *)
  let reachable_keys prog cap =
    let seen = H.create 1024 in
    let q = Queue.create () in
    let add st =
      let k = M.canon st in
      if not (H.mem seen k) then (
        H.replace seen k ();
        Queue.push st q)
    in
    add (M.initial prog);
    let complete = ref true in
    while not (Queue.is_empty q) do
      if H.length seen > cap then (
        complete := false;
        Queue.clear q)
      else
        let st = Queue.pop q in
        List.iter add (M.successors prog st)
    done;
    (seen, !complete)

  let orbit_min g k =
    List.fold_left
      (fun acc p ->
        let k' = M.permute p k in
        if compare k' acc < 0 then k' else acc)
      k g.Sym.perms

  let check name prog =
    let g = Sym.of_prog prog in
    if g.Sym.order <= 1 then
      Alcotest.failf "%s/%s: expected a nontrivial automorphism group" name
        M.name;
    let seen, complete = reachable_keys prog 60_000 in
    (* Every automorphism maps reachable keys to reachable keys — checked
       only when the probe saw the whole graph (on a prefix the image may
       legitimately land past the cap). *)
    if complete then
      List.iter
        (fun p ->
          H.iter
            (fun k () ->
              if not (H.mem seen (M.permute p k)) then
                Alcotest.failf
                  "%s/%s: image of a reachable key is unreachable" name
                  M.name)
            seen)
        g.Sym.perms;
    H.iter
      (fun k () ->
        let m = orbit_min g k in
        if not (M.equal (orbit_min g m) m) then
          Alcotest.failf "%s/%s: orbit_min is not idempotent" name M.name;
        List.iter
          (fun p ->
            if not (M.equal (orbit_min g (M.permute p k)) m) then
              Alcotest.failf
                "%s/%s: orbit_min differs across one orbit" name M.name)
          g.Sym.perms)
      seen
end

module Probe_def2 = Probe (M_def2.Base)
module Probe_wbuf = Probe (M_wbuf)
module Probe_ooo = Probe (M_ooo)
module Probe_sc = Probe (M_sc)

let test_orbit_properties () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      Probe_def2.check name prog;
      Probe_wbuf.check name prog;
      Probe_ooo.check name prog;
      Probe_sc.check name prog)
    [ "iriw"; "big3" ]

let test_group_orders () =
  let order name = (Sym.of_prog (prog_of name)).Sym.order in
  Alcotest.(check int) "iriw group order" 2 (order "iriw");
  Alcotest.(check int) "big3 group order" 3 (order "big3");
  Alcotest.(check int) "big4 group order" 4 (order "big4")

(* --- sym / no-sym differential --------------------------------------- *)

let machines () =
  List.map
    (fun n -> Option.get (Machines.find n))
    [ "def2"; "wbuf"; "ooo" ]

let explore_states ~sym m prog =
  let rcfg = { Explore.rcfg_default with Explore.sym } in
  let r = Machines.explore ~rcfg m prog in
  Alcotest.(check bool) "complete" true
    (Explore.is_complete r.Explore.result);
  (Explore.bounded_value r.Explore.result,
   r.Explore.stats.Explore.states_expanded)

let check_differential label m prog =
  let set_off, states_off = explore_states ~sym:false m prog in
  let set_on, states_on = explore_states ~sym:true m prog in
  if not (Final.Set.equal set_off set_on) then
    Alcotest.failf "%s/%s: symmetry reduction changed the outcome set"
      label (Machines.name m);
  if states_on > states_off then
    Alcotest.failf "%s/%s: reduced sweep expanded more states (%d > %d)"
      label (Machines.name m) states_on states_off

let test_differential_classics () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      List.iter (fun m -> check_differential name m prog) (machines ()))
    [ "iriw"; "big3"; "dekker"; "mp_sync" ]

let test_differential_generated () =
  (* Generated corpus: most seeds have trivial groups (the reduction must
     be an exact no-op there), a few are symmetric — both sides of the
     contract get exercised. *)
  let seeds = List.init 12 Fun.id in
  let progs =
    List.filter_map
      (fun seed -> Litmus_gen.generate_live ~max_attempts:20 seed)
      seeds
  in
  Alcotest.(check bool) "some generated programs" true (progs <> []);
  List.iter
    (fun prog ->
      List.iter
        (fun m -> check_differential (Prog.name prog) m prog)
        (machines ()))
    progs

let test_reduction_bites () =
  (* The acceptance bar: on big3 at least one machine drops >= 30% of its
     states under symmetry, outcomes identical (checked above). *)
  let prog = prog_of "big3" in
  let best =
    List.fold_left
      (fun acc m ->
        let _, off = explore_states ~sym:false m prog in
        let _, on = explore_states ~sym:true m prog in
        let pct =
          float_of_int (off - on) /. float_of_int off *. 100.
        in
        Float.max acc pct)
      0. (machines ())
  in
  if best < 30. then
    Alcotest.failf "big3: best state reduction %.1f%% < 30%%" best

let test_sc_differential () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      let explore sym =
        let r =
          Machines.explore ~reduce:true ~por_min_instrs:0
            ~rcfg:{ Explore.rcfg_default with Explore.sym }
            Machines.sc prog
        in
        ( Explore.bounded_value r.Explore.result,
          r.Explore.stats.Explore.states_expanded )
      in
      let set_off, states_off = explore false in
      let set_on, states_on = explore true in
      Alcotest.(check bool) (name ^ ": sc outcome sets equal") true
        (Final.Set.equal set_off set_on);
      Alcotest.(check bool) (name ^ ": sc states not worse") true
        (states_on <= states_off))
    [ "iriw"; "big3" ]

(* --- outcome-set closure under the group ------------------------------ *)

let test_final_closure () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      let g = Sym.of_prog prog in
      List.iter
        (fun m ->
          let set = Machines.outcomes m prog in
          List.iter
            (fun p ->
              let image = Final.Set.map (Sym.apply_final p) set in
              if not (Final.Set.equal image set) then
                Alcotest.failf
                  "%s/%s: outcome set is not closed under the group" name
                  (Machines.name m))
            g.Sym.perms)
        (machines ()))
    [ "iriw"; "big3" ]

(* --- syntactic program canonicalization ------------------------------- *)

let sb_a =
  "name a\n\
   { x=0; y=0 }\n\
   P0         | P1         ;\n\
   W x 1      | W y 1      ;\n\
   r0 := R y  | r1 := R x  ;\n\
   exists (0:r0=0)\n"

(* [sb_a] with the threads swapped, locations renamed x<->a-style and
   fresh register names — a pure renaming, so the canonical text must be
   identical. *)
let sb_b =
  "name b\n\
   { a=0; b=0 }\n\
   P0         | P1         ;\n\
   W b 1      | W a 1      ;\n\
   s9 := R a  | t3 := R b  ;\n\
   exists (1:t3=0)\n"

(* Not a renaming of [sb_a]: one written value differs. *)
let sb_c =
  "name c\n\
   { x=0; y=0 }\n\
   P0         | P1         ;\n\
   W x 2      | W y 1      ;\n\
   r0 := R y  | r1 := R x  ;\n\
   exists (0:r0=0)\n"

let test_prog_canon () =
  let parse = Litmus_parse.parse_string in
  let a = parse sb_a and b = parse sb_b and c = parse sb_c in
  Alcotest.(check string) "renaming-invariant" (Prog_canon.text a)
    (Prog_canon.text b);
  Alcotest.(check bool) "distinguishes non-isomorphic programs" true
    (Prog_canon.text a <> Prog_canon.text c);
  (* Idempotence at the program level: canonical text is a function of
     the canonical text (re-deriving it from the same program is
     stable). *)
  Alcotest.(check string) "stable" (Prog_canon.text a) (Prog_canon.text a)

let test_sym_cache_key () =
  let parse = Litmus_parse.parse_string in
  let a = parse sb_a and b = parse sb_b in
  let k p = Verdict_cache.sym_key ~prog:p ~machine:"def2" ~model:"drf0" in
  Alcotest.(check string) "isomorphic programs share the sym key" (k a)
    (k b);
  Alcotest.(check bool) "sym key is not the exact key" true
    (k a <> Verdict_cache.key ~prog:a ~machine:"def2" ~model:"drf0");
  Alcotest.(check bool) "sym key separates machines" true
    (k a <> Verdict_cache.sym_key ~prog:a ~machine:"ooo" ~model:"drf0")

let suite =
  ( "sym",
    [
      Alcotest.test_case "group orders" `Quick test_group_orders;
      Alcotest.test_case "orbit canonicalization properties" `Slow
        test_orbit_properties;
      Alcotest.test_case "differential on classics" `Quick
        test_differential_classics;
      Alcotest.test_case "differential on generated programs" `Slow
        test_differential_generated;
      Alcotest.test_case "reduction reaches the 30%% floor" `Quick
        test_reduction_bites;
      Alcotest.test_case "sc enumerator differential" `Quick
        test_sc_differential;
      Alcotest.test_case "outcome sets closed under the group" `Quick
        test_final_closure;
      Alcotest.test_case "program canonicalization" `Quick test_prog_canon;
      Alcotest.test_case "symmetry cache key" `Quick test_sym_cache_key;
    ] )
