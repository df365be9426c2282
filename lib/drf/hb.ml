(* Happens-before relations (paper, Section 4).

   For an execution on the idealized architecture:
     - program order (po):  op1 po op2 iff op1 precedes op2 in some thread;
     - synchronization order (so):  op1 so op2 iff both are synchronization
       operations on the same location and op1 completes before op2;
     - happens-before (hb):  the irreflexive transitive closure of po ∪ so.

   An execution is represented either by an explicit completion order (a
   trace from the SC interleaver) or by a choice of per-location sync
   orders (see {!Sync_orders}), which is all hb depends on. *)

(* Same-location pairs of distinct synchronization operations that [keep]
   orders. *)
let so_where evts keep =
  let pairs = ref [] in
  List.iter
    (fun loc ->
      let syncs = Evts.syncs_of_loc evts loc in
      List.iter
        (fun a ->
          List.iter
            (fun b -> if a <> b && keep a b then pairs := (a, b) :: !pairs)
            syncs)
        syncs)
    (Evts.locations evts);
  Rel.of_list (Evts.size evts) !pairs

let so_of_trace evts trace =
  (* Position of each event in the completion order. *)
  let pos = Array.make (Evts.size evts) max_int in
  List.iteri (fun i e -> pos.(e) <- i) trace;
  so_where evts (fun a b -> pos.(a) < pos.(b))

let so_all evts = so_where evts (fun _ _ -> true)

let hb evts ~so = Closure.transitive_closure (Rel.union (Evts.po evts) so)

(* The DRF1 refinement of Section 6: a read-only synchronization operation
   cannot be used to order the issuing processor's previous accesses with
   respect to other processors' subsequent synchronization operations.  We
   adopt the formalization from the authors' later work: only so edges from
   an operation with a *write* component to an operation with a *read*
   component (release -> acquire) carry cross-processor ordering. *)
let so_release_acquire evts so =
  Rel.filter
    (fun a b ->
      Event.is_write (Evts.event evts a) && Event.is_read (Evts.event evts b))
    so

let hb1 evts ~so =
  Closure.transitive_closure
    (Rel.union (Evts.po evts) (so_release_acquire evts so))

let ordered rel a b = Rel.mem rel a b || Rel.mem rel b a

let unordered_conflicts evts rel =
  List.filter
    (fun (a, b) -> not (ordered rel a b))
    (Evts.conflicting_pairs evts)
