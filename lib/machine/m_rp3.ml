(* An RP3-style fence machine (paper, Section 2.1): the IBM RP3's option in
   which a processor waits for the acknowledgements of its outstanding
   requests only at an explicit fence instruction.

   The hardware knows nothing about synchronization operations — sync
   accesses travel like data — so ordering is entirely the software's
   responsibility, through fences.  "As will be apparent later, this option
   functions as a weakly ordered system": it is weakly ordered with respect
   to the fenced-delays synchronization model (every Shasha–Snir delay pair
   separated by a fence), not with respect to DRF0.

   Model: in-order issue, blocking reads with forwarding from the
   processor's own pending writes, pending writes that reach memory in any
   order (same-location writes in issue order), and a fence that stalls
   until the pending set drains.  RMWs are atomic at memory and drain the
   pending set first (RP3's fetch-and-ops serialized at the memory
   modules). *)

module Smap = Exp.Smap

type pending = { wloc : string; wval : int }

type proc = {
  next : int;
  regs : int Smap.t;
  pending : pending list;  (** issue order, oldest first *)
}

type state = { memory : int Smap.t; procs : proc array; lay : Layout.t }

let name = "rp3"

let initial prog =
  {
    memory = Prog.initial_memory prog;
    procs =
      Array.init (Prog.num_threads prog) (fun _ ->
          { next = 0; regs = Smap.empty; pending = [] });
    lay = Layout.cached prog;
  }

let read_mem memory loc =
  match Smap.find_opt loc memory with Some v -> v | None -> 0

let forwarded pending loc =
  List.fold_left
    (fun acc pw -> if String.equal pw.wloc loc then Some pw.wval else acc)
    None pending

let visible st p loc =
  match forwarded st.procs.(p).pending loc with
  | Some v -> v
  | None -> read_mem st.memory loc

let with_proc st p proc =
  let procs = Array.copy st.procs in
  procs.(p) <- proc;
  { st with procs }

let advance ?(regs = fun r -> r) ?(pending = fun w -> w) st p =
  let pr = st.procs.(p) in
  with_proc st p
    { next = pr.next + 1; regs = regs pr.regs; pending = pending pr.pending }

let issue prog st p =
  let pr = st.procs.(p) in
  match List.nth_opt (Prog.thread prog p) pr.next with
  | None -> []
  | Some instr -> (
      let drained = pr.pending = [] in
      match instr with
      | Instr.Load { loc; reg; _ } ->
          (* Any kind: the hardware sees no difference. *)
          let v = visible st p loc in
          [ advance ~regs:(Smap.add reg v) st p ]
      | Instr.Store { loc; value; _ } ->
          let v = Exp.eval pr.regs value in
          [ advance ~pending:(fun w -> w @ [ { wloc = loc; wval = v } ]) st p ]
      | Instr.Await { loc; expect; reg; _ } ->
          if visible st p loc = expect then
            let regs =
              match reg with Some r -> Smap.add r expect | None -> fun x -> x
            in
            [ advance ~regs st p ]
          else []
      | Instr.Rmw { loc; reg; value; _ } ->
          if drained then begin
            let old = read_mem st.memory loc in
            let regs = Smap.add reg old pr.regs in
            let v = Exp.eval regs value in
            let st = { st with memory = Smap.add loc v st.memory } in
            [ advance ~regs:(fun _ -> regs) st p ]
          end
          else []
      | Instr.Lock { loc } ->
          if drained && read_mem st.memory loc = 0 then begin
            let st = { st with memory = Smap.add loc 1 st.memory } in
            [ advance st p ]
          end
          else []
      | Instr.Fence -> if drained then [ advance st p ] else [])

(* Perform one pending write; same-location writes leave in issue order. *)
let perform st p =
  let pr = st.procs.(p) in
  let rec candidates seen_locs before acc = function
    | [] -> acc
    | pw :: rest ->
        let acc =
          if List.mem pw.wloc seen_locs then acc
          else begin
            let st' = { st with memory = Smap.add pw.wloc pw.wval st.memory } in
            with_proc st' p { pr with pending = List.rev_append before rest }
            :: acc
          end
        in
        candidates (pw.wloc :: seen_locs) (pw :: before) acc rest
  in
  candidates [] [] [] pr.pending

let successors prog st =
  let acc = ref [] in
  for p = Array.length st.procs - 1 downto 0 do
    acc := issue prog st p @ perform st p @ !acc
  done;
  !acc

let final prog st =
  let complete =
    Array.to_list st.procs
    |> List.mapi (fun p pr ->
           pr.pending = [] && pr.next >= List.length (Prog.thread prog p))
    |> List.for_all Fun.id
  in
  if not complete then None
  else
    Some
      (Final.make ~memory:st.memory
         ~regs:(Array.map (fun pr -> pr.regs) st.procs))

type key = Key.t

(* Memory, then per processor [next], its registers and its pending
   writes as (location, value) entries, oldest first. *)
let shape = { Layout.fixed = 1; width = 2 }

let canon st : key =
  Layout.finish
    (Layout.encode st.lay shape st.memory st.procs
       ~fixed:(fun e pr -> Layout.int e pr.next)
       ~regs:(fun pr -> pr.regs)
       ~entries:(fun pr -> pr.pending)
       ~entry:(fun e w ->
         Layout.loc e w.wloc;
         Layout.int e w.wval))

let hash = Key.hash
let equal = Key.equal
let image = Key.image shape
let permute = Key.permute image

(* No reduction oracle: these machines interleave reservation bookkeeping
   (global-perform counters, reservation multisets) with every shared
   access, so a conservative labeling would mark everything [a_sync] and
   suppress nothing.  Explored in full — always sound. *)
let por _ = None
