(* An out-of-order machine: every access executes atomically against a
   single memory, but a processor may execute its instructions in any order
   that respects (a) register dependencies (true, anti and output — the
   "simple interlock logic" of Figure 1's caption), (b) program order
   between same-location accesses, and (c) fences.

   This models Figure 1's general-interconnection-network configurations,
   where accesses issued in program order reach memory modules in a
   different order.  Synchronization operations receive no special
   treatment — naive hardware — so the machine is not weakly ordered with
   respect to anything; it exists to demonstrate the violations of
   Figure 1. *)

module Smap = Exp.Smap

type proc = { executed : int; regs : int Smap.t }  (** [executed] is a bitmask *)

type state = { memory : int Smap.t; procs : proc array; lay : Layout.t }

let name = "ooo"

(* Per-thread precedence masks: preds.(p).(j) is the bitmask of indices that
   must execute before instruction j of thread p. *)
let preds_of_prog prog =
  Array.init (Prog.num_threads prog) (fun p ->
      let instrs = Array.of_list (Prog.thread prog p) in
      let n = Array.length instrs in
      Array.init n (fun j ->
          let ij = instrs.(j) in
          let mask = ref 0 in
          for i = 0 to j - 1 do
            let ii = instrs.(i) in
            let same_loc =
              match (Instr.location ii, Instr.location ij) with
              | Some a, Some b -> String.equal a b
              | _, _ -> false
            in
            let fence = ii = Instr.Fence || ij = Instr.Fence in
            let true_dep =
              match Instr.target_register ii with
              | Some r -> List.mem r (Instr.source_registers ij)
              | None -> false
            in
            let anti_dep =
              match Instr.target_register ij with
              | Some r -> List.mem r (Instr.source_registers ii)
              | None -> false
            in
            let output_dep =
              match (Instr.target_register ii, Instr.target_register ij) with
              | Some a, Some b -> String.equal a b
              | _, _ -> false
            in
            if same_loc || fence || true_dep || anti_dep || output_dep then
              mask := !mask lor (1 lsl i)
          done;
          !mask))

(* The masks depend only on the program; cache them across calls.  An
   [Atomic] so parallel exploration domains can race on it safely — a lost
   update merely recomputes the (immutable) masks. *)
let preds_cache : (Prog.t * int array array) option Atomic.t = Atomic.make None

let preds prog =
  match Atomic.get preds_cache with
  | Some (p, masks) when p == prog -> masks
  | Some _ | None ->
      let masks = preds_of_prog prog in
      Atomic.set preds_cache (Some (prog, masks));
      masks

let initial prog =
  {
    memory = Prog.initial_memory prog;
    procs =
      Array.init (Prog.num_threads prog) (fun _ ->
          { executed = 0; regs = Smap.empty });
    lay = Layout.cached prog;
  }

let read_mem memory loc =
  match Smap.find_opt loc memory with Some v -> v | None -> 0

let with_proc st p proc =
  let procs = Array.copy st.procs in
  procs.(p) <- proc;
  { st with procs }

let execute_instr instr st p j =
  let pr = st.procs.(p) in
  let mark regs = { executed = pr.executed lor (1 lsl j); regs } in
  match instr with
  | Instr.Load { loc; reg; _ } ->
      let v = read_mem st.memory loc in
      Some (with_proc st p (mark (Smap.add reg v pr.regs)))
  | Instr.Store { loc; value; _ } ->
      let v = Exp.eval pr.regs value in
      Some (with_proc { st with memory = Smap.add loc v st.memory } p (mark pr.regs))
  | Instr.Rmw { loc; reg; value; _ } ->
      let old = read_mem st.memory loc in
      let regs = Smap.add reg old pr.regs in
      let v = Exp.eval regs value in
      Some (with_proc { st with memory = Smap.add loc v st.memory } p (mark regs))
  | Instr.Await { loc; expect; reg; _ } ->
      if read_mem st.memory loc = expect then
        let regs =
          match reg with Some r -> Smap.add r expect pr.regs | None -> pr.regs
        in
        Some (with_proc st p (mark regs))
      else None
  | Instr.Lock { loc } ->
      if read_mem st.memory loc = 0 then
        Some (with_proc { st with memory = Smap.add loc 1 st.memory } p (mark pr.regs))
      else None
  | Instr.Fence -> Some (with_proc st p (mark pr.regs))

let successors prog st =
  let masks = preds prog in
  let instrs = (Por_static.cached prog).Por_static.instrs in
  let acc = ref [] in
  for p = Array.length st.procs - 1 downto 0 do
    let pr = st.procs.(p) in
    let n = Array.length masks.(p) in
    for j = n - 1 downto 0 do
      let not_done = pr.executed land (1 lsl j) = 0 in
      let ready = masks.(p).(j) land lnot pr.executed = 0 in
      if not_done && ready then
        match execute_instr instrs.(p).(j) st p j with
        | Some st' -> acc := st' :: !acc
        | None -> ()
    done
  done;
  !acc

let final prog st =
  let masks = preds prog in
  let complete =
    Array.to_list st.procs
    |> List.mapi (fun p pr ->
           pr.executed = (1 lsl Array.length masks.(p)) - 1)
    |> List.for_all Fun.id
  in
  if not complete then None
  else
    Some
      (Final.make ~memory:st.memory
         ~regs:(Array.map (fun pr -> pr.regs) st.procs))

type key = Key.t

(* Memory, then per processor its executed mask and its registers. *)
let shape = { Layout.fixed = 1; width = 0 }

let canon st : key =
  Layout.finish
    (Layout.encode st.lay shape st.memory st.procs
       ~fixed:(fun e pr -> Layout.int e pr.executed)
       ~regs:(fun pr -> pr.regs))

let hash = Key.hash
let equal = Key.equal

(* The executed bitmask indexes instructions; automorphisms map thread [p]'s
   instruction [i] to the image thread's instruction [i], so the mask moves
   with the processor unchanged. *)
let image = Key.image shape
let permute = Key.permute image

(* --- partial-order reduction oracle -------------------------------------

   Transition labels: every ready instruction executes atomically against
   memory, so the label is just its location and direction; fences are
   local (they only set an executed bit).  There is no global structure
   beyond memory, so no label needs [a_sync].

   Ample selection, scanned in successor order; each class's soundness
   leans on the precedence masks: any two same-location or register-
   dependent instructions of one processor are ordered by [preds], so a
   *ready* instruction has no unexecuted same-processor conflict — its
   earlier conflicts are executed, and its later ones list it in their
   masks and cannot fire first.  Readiness is monotone (bits only get
   set), so an ample candidate stays enabled while others fire.

   - a ready fence: its mask contains every earlier instruction and it
     appears in every later one's mask, so nothing of its own processor
     can fire before it; it changes nothing but a bit, so every foreign
     step commutes with it; every complete run performs it.
   - a ready load of [l] when no *other* processor has an unexecuted
     instruction writing [l]: all remaining foreign steps are
     independent of it (read-read sharing is fine).
   - a ready store or RMW of [l] when no other processor has an
     unexecuted instruction accessing [l].

   Awaits and locks are never chosen: they block on memory values that
   foreign writes can change. *)

let successors_labeled prog st =
  let masks = preds prog in
  let instrs = (Por_static.cached prog).Por_static.instrs in
  let acc = ref [] in
  for p = Array.length st.procs - 1 downto 0 do
    let pr = st.procs.(p) in
    let n = Array.length masks.(p) in
    for j = n - 1 downto 0 do
      let not_done = pr.executed land (1 lsl j) = 0 in
      let ready = masks.(p).(j) land lnot pr.executed = 0 in
      if not_done && ready then
        let instr = instrs.(p).(j) in
        match execute_instr instr st p j with
        | Some st' ->
            let a_loc, a_write =
              match instr with
              | Instr.Fence -> ("", false)
              | Instr.Load { loc; _ } | Instr.Await { loc; _ } -> (loc, false)
              | Instr.Store { loc; _ } | Instr.Rmw { loc; _ } | Instr.Lock { loc }
                ->
                  (loc, true)
            in
            acc :=
              ( {
                  Machine_sig.a_proc = p;
                  a_id = j;
                  a_loc;
                  a_write;
                  a_sync = false;
                },
                st' )
              :: !acc
        | None -> ()
    done
  done;
  !acc

let por prog =
  let info = Por_static.cached prog in
  (* No unexecuted instruction of any other processor writes
     ([write_only]) or touches [loc]. *)
  let foreign_clear ~write_only st p loc =
    let ok = ref true in
    Array.iteri
      (fun q pr ->
        if q <> p && !ok then begin
          let am, wm = Por_static.loc_bitmasks info ~p:q loc in
          if (if write_only then wm else am) land lnot pr.executed <> 0 then
            ok := false
        end)
      st.procs;
    !ok
  in
  let ample st succs =
    List.find_opt
      (fun ((a : Machine_sig.action), _) ->
        if a.a_loc = "" then true
        else
          match info.Por_static.instrs.(a.a_proc).(a.a_id) with
          | Instr.Load _ -> foreign_clear ~write_only:true st a.a_proc a.a_loc
          | Instr.Store _ | Instr.Rmw _ ->
              foreign_clear ~write_only:false st a.a_proc a.a_loc
          | Instr.Await _ | Instr.Lock _ | Instr.Fence -> false)
      succs
  in
  Some { Machine_sig.successors_labeled = successors_labeled prog; ample }
