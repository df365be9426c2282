(* The Data-Race-Free-0 synchronization model (paper, Definition 3) and the
   DRF1 refinement sketched in Section 6.

   A program obeys DRF0 iff (1) all synchronization operations are
   hardware-recognizable and access exactly one location — guaranteed by
   construction of our instruction set — and (2) for every execution on the
   idealized architecture, all conflicting accesses are ordered by the
   happens-before relation of that execution. *)

type model = DRF0 | DRF1

let pp_model ppf m =
  Fmt.string ppf (match m with DRF0 -> "DRF0" | DRF1 -> "DRF1")

let hb_of_model = function DRF0 -> Hb.hb | DRF1 -> Hb.hb1

type race = {
  e1 : Event.t;
  e2 : Event.t;
  sync_order : Sync_orders.t;
      (** the synchronization order of a witnessing execution *)
}

let pp_race ppf r =
  Fmt.pf ppf "@[<h>%a and %a are unordered under sync order %a@]" Event.pp
    r.e1 Event.pp r.e2 Sync_orders.pp r.sync_order

(* Race candidates: conflicting pairs involving at least one data operation.
   Two synchronization operations never race — under DRF0 this is merely a
   simplification (same-location sync pairs are always ordered by so, hence
   by hb), but under DRF1 it is part of the definition: synchronization
   operations are ordered by the implementation's serialization of syncs
   (condition 3), not by happens-before. *)
let race_candidates evts =
  List.filter
    (fun (a, b) ->
      Event.is_data (Evts.event evts a) || Event.is_data (Evts.event evts b))
    (Evts.conflicting_pairs evts)

let unordered_candidates evts hb =
  List.filter
    (fun (a, b) -> not (Hb.ordered hb a b))
    (race_candidates evts)

(* --- whole-program checking --------------------------------------------- *)

let races ?(model = DRF0) prog =
  let evts = Evts.of_prog prog in
  let hb_fn = hb_of_model model in
  let tuples = Sync_orders.feasible prog in
  List.concat_map
    (fun tuple ->
      let so = Sync_orders.to_so evts tuple in
      let hb = hb_fn evts ~so in
      List.map
        (fun (a, b) ->
          { e1 = Evts.event evts a; e2 = Evts.event evts b; sync_order = tuple })
        (unordered_candidates evts hb))
    tuples

let check ?(model = DRF0) prog =
  match races ~model prog with [] -> Ok () | rs -> Error rs

(* Every execution's so is a subset of [Hb.so_all], and hb grows with so,
   so a candidate unordered under [Hb.so_all] is a race in every complete
   execution: without branches, each one performs every static event.
   Such a program obeys iff it has no complete execution, which only
   blocking instructions can prevent.  Otherwise the sync-order search
   decides, stopping at the first racy order. *)
let obeys ?(model = DRF0) prog =
  let evts = Evts.of_prog prog in
  let candidates = race_candidates evts in
  let racy so =
    let hb = hb_of_model model evts ~so in
    List.exists (fun (a, b) -> not (Hb.ordered hb a b)) candidates
  in
  if racy (Hb.so_all evts) then
    List.exists (List.exists Instr.is_blocking) (Prog.threads prog)
    && Final.Set.is_empty (Sc.outcomes prog)
  else
    not
      (List.exists
         (fun tuple -> racy (Sync_orders.to_so evts tuple))
         (Sync_orders.feasible prog))

(* --- per-execution checking (Figure 2 style) ----------------------------- *)

let races_of_trace ?(model = DRF0) evts trace =
  let so = Hb.so_of_trace evts trace in
  let hb = (hb_of_model model) evts ~so in
  List.map
    (fun (a, b) -> (Evts.event evts a, Evts.event evts b))
    (unordered_candidates evts hb)

let trace_obeys ?(model = DRF0) evts trace =
  races_of_trace ~model evts trace = []

(* --- naive cross-check ---------------------------------------------------- *)

(* Definition 3, checked literally: enumerate every SC interleaving and test
   its happens-before.  Exponential; exists to validate the sync-order-based
   checker on small programs. *)
let obeys_naive ?(model = DRF0) prog =
  let evts = Evts.of_prog prog in
  let ok = ref true in
  Sc.iter_traces prog (fun trace _ ->
      if !ok && not (trace_obeys ~model evts trace) then ok := false);
  !ok
