(* Exhaustive enumeration of sequentially consistent executions.

   [outcomes] computes the full set of results by sweeping the {!M_sc}
   machine with the shared exploration engine; [iter_traces] enumerates
   interleavings (no memoization — exponential, intended for
   litmus-sized programs and for cross-checking smarter analyses). *)

(* The reference sweep: no size guard on the reduction and no symmetry
   pruning, so [reduce] alone decides how the state graph is walked. *)
let rcfg = { Explore.rcfg_default with Explore.sym = false }

let explore ?(reduce = true) prog =
  let r =
    Machines.explore ~reduce ~por_min_instrs:0 ~rcfg Machines.sc prog
  in
  ( Explore.bounded_value r.Explore.result,
    r.Explore.stats.Explore.states_expanded )

let outcomes ?reduce prog = fst (explore ?reduce prog)

(* --- trace enumeration ------------------------------------------------------ *)

let iter_traces ?(reduce = false) prog f =
  let evts = Evts.of_prog prog in
  let nprocs = Prog.num_threads prog in
  (* Event ids of each thread as arrays for O(1) lookup by index. *)
  let ids = Array.init nprocs (fun p -> Array.of_list (Evts.by_proc evts p)) in
  let info = if reduce then Some (Por_static.cached prog) else None in
  let rec explore state trace =
    if Sem.all_done prog state then
      f (List.rev trace) (Sem.final_of_state state)
    else
      let fire p state' =
        let fired = ids.(p).(state.Sem.threads.(p).Sem.next) in
        explore state' (fired :: trace)
      in
      match
        match info with None -> None | Some i -> M_sc.por_candidate i state
      with
      | Some p -> (
          match Sem.step prog state p with
          | Some state' -> fire p state'
          | None -> assert false)
      | None ->
          for p = 0 to nprocs - 1 do
            match Sem.step prog state p with
            | None -> ()
            | Some state' -> fire p state'
          done
  in
  explore (Sem.initial prog) []

let count_traces ?reduce prog =
  let n = ref 0 in
  iter_traces ?reduce prog (fun _ _ -> incr n);
  !n
