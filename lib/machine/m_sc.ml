(* The sequentially consistent reference machine: the paper's idealized
   architecture, where every access executes atomically and in program
   order (Lamport's definition, as instantiated in the paper's
   introduction).  A state is a {!Sem.state} and a step fires one
   thread's next instruction ({!Sem.step}).  Definition 2 measures every
   other machine against this one's outcome set. *)

type state = Sem.state
type key = Sem.key

let name = "sc"
let initial = Sem.initial

let successors prog st =
  let acc = ref [] in
  for p = Array.length st.Sem.threads - 1 downto 0 do
    match Sem.step prog st p with Some s -> acc := s :: !acc | None -> ()
  done;
  !acc

let final prog st =
  if Sem.all_done prog st then Some (Sem.final_of_state st) else None

let canon = Sem.key_of_state
let hash = Sem.key_hash
let equal = Sem.key_equal

let permute pi ((next, mem, regs) : key) : key =
  ( Sym.permute_procs pi (fun _ n -> n) next,
    Sym.rename_bindings pi mem,
    Sym.permute_procs pi
      (fun p rb -> Sym.rename_reg_bindings pi ~proc:p rb)
      regs )

(* --- partial-order reduction ------------------------------------------------

   At a state where some thread's next instruction is a *data* load or
   store (or a fence) that cannot conflict with anything any other thread
   will ever do again — no other thread's remaining instructions access the
   location at all for a write, nor write it for a read — interleaving it
   against the other threads is pure redundancy: it commutes with every
   step the others can take before it, so every complete run is
   Mazurkiewicz-equivalent to one that fires it immediately.  Exploring
   only that step preserves the outcome set exactly.

   Synchronization operations are never commuted: they are the program's
   ordering backbone, and the blocking ones ([Await]/[Lock]) have
   enabledness that other threads control, so firing them eagerly could
   not be justified by static independence.  The same goes for data
   [Await]s (blocking) and RMWs (conservatively treated as sync).

   The static conflict facts (per-thread suffix masks) come from
   {!Por_static}.  The independence test runs once per (state, thread) on
   a hot loop, so it uses the dense-location-id masks — a shift and a mask
   per other thread, no map lookup — whenever the program's locations fit
   one word (every litmus-sized program), and the string-keyed suffix maps
   otherwise. *)

(* The first thread whose next instruction can soundly be fired alone, if
   any.  Determinism of the choice keeps the reduced graph canonical. *)
let por_candidate (info : Por_static.t) st =
  let nprocs = Array.length st.Sem.threads in
  let dense = Por_static.has_dense_ids info in
  let clear p ~pj loc ~write =
    let lid = if dense then Por_static.instr_loc_id info ~p ~j:pj else -1 in
    let ok = ref true in
    for q = 0 to nprocs - 1 do
      if !ok && q <> p then begin
        let jq = st.Sem.threads.(q).Sem.next in
        if
          if dense then
            if write then Por_static.access_remains_id info ~p:q ~j:jq lid
            else Por_static.write_remains_id info ~p:q ~j:jq lid
          else if write then Por_static.access_remains info ~p:q ~j:jq loc
          else Por_static.write_remains info ~p:q ~j:jq loc
        then ok := false
      end
    done;
    !ok
  in
  let rec pick p =
    if p >= nprocs then None
    else
      let j = st.Sem.threads.(p).Sem.next in
      let instrs = info.Por_static.instrs.(p) in
      if j >= Array.length instrs then pick (p + 1)
      else
        let eligible =
          match instrs.(j) with
          | Instr.Fence -> true
          | Instr.Load { kind = Instr.Data; loc; _ } ->
              clear p ~pj:j loc ~write:false
          | Instr.Store { kind = Instr.Data; loc; _ } ->
              clear p ~pj:j loc ~write:true
          | _ -> false
        in
        if eligible then Some p else pick (p + 1)
  in
  pick 0

(* Every step is labeled a sync step on all of memory, so no two steps
   commute as far as the engine's sleep sets can tell: the reduction is
   exactly the ample choice above, a function of the state alone.
   Over-declaring dependence is always sound. *)
let successors_labeled prog st =
  let acc = ref [] in
  for p = Array.length st.Sem.threads - 1 downto 0 do
    match Sem.step prog st p with
    | Some s ->
        acc :=
          ( {
              Machine_sig.a_proc = p;
              a_id = st.Sem.threads.(p).Sem.next;
              a_loc = "*";
              a_write = true;
              a_sync = true;
            },
            s )
          :: !acc
    | None -> ()
  done;
  !acc

let por prog =
  let info = Por_static.cached prog in
  let ample st succs =
    match por_candidate info st with
    | None -> None
    | Some p ->
        List.find_opt (fun ((a : Machine_sig.action), _) -> a.a_proc = p) succs
  in
  Some { Machine_sig.successors_labeled = successors_labeled prog; ample }
