(* Feasible synchronization orders of a program.

   DRF0 (Definition 3) quantifies over all executions on the idealized
   architecture, but the happens-before relation of an execution depends
   only on the per-location completion order of its synchronization
   operations.  This module computes exactly the set of such orders that
   are realizable by some complete SC execution, by a memoized depth-first
   search of the idealized semantics.

   The search must be semantic, not purely combinatorial: blocking
   operations ([Await], [Lock]) make some combinatorially-plausible sync
   orders unrealizable (e.g. an await completing before the write it waits
   for), and those orders must not be counted. *)

type t = (string * int list) list
(** For each synchronization location (sorted), the sync event ids in
    completion order. *)

module Tuple_set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Memo = Hashtbl.Make (struct
  type t = Sem.key

  let hash = Key.hash
  let equal = Key.equal
end)

let empty_tuple sync_locs = List.map (fun l -> (l, [])) sync_locs

let prepend loc e tuple =
  List.map (fun (l, es) -> if String.equal l loc then (l, e :: es) else (l, es)) tuple

let feasible prog =
  let evts = Evts.of_prog prog in
  let sync_locs = Prog.sync_locations prog in
  let terminal = Tuple_set.singleton (empty_tuple sync_locs) in
  let ids =
    Array.init (Prog.num_threads prog) (fun p ->
        Array.of_list (Evts.by_proc evts p))
  in
  let memo : Tuple_set.t Memo.t = Memo.create 512 in
  let rec explore state =
    let key = Sem.key_of_state state in
    match Memo.find_opt memo key with
    | Some res -> res
    | None ->
        let res =
          if Sem.all_done prog state then terminal
          else begin
            let acc = ref Tuple_set.empty in
            for p = 0 to Prog.num_threads prog - 1 do
              match Sem.step prog state p with
              | None -> ()
              | Some state' ->
                  let eid = ids.(p).(state.Sem.threads.(p).Sem.next) in
                  let e = Evts.event evts eid in
                  let futures = explore state' in
                  let futures =
                    match (Event.is_sync e, e.Event.loc) with
                    | true, Some loc ->
                        Tuple_set.map (prepend loc eid) futures
                    | _, _ -> futures
                  in
                  acc := Tuple_set.union futures !acc
            done;
            !acc
          end
        in
        Memo.add memo key res;
        res
  in
  Tuple_set.elements (explore (Sem.initial prog))

let to_so evts tuple =
  let n = Evts.size evts in
  let pairs = ref [] in
  List.iter
    (fun (_, es) ->
      let rec walk = function
        | [] -> ()
        | a :: rest ->
            List.iter (fun b -> pairs := (a, b) :: !pairs) rest;
            walk rest
      in
      walk es)
    tuple;
  Rel.of_list n !pairs

let count prog = List.length (feasible prog)

let pp ppf tuple =
  let pp_loc ppf (l, es) =
    Fmt.pf ppf "%s:[%a]" l Fmt.(list ~sep:(any ",") int) es
  in
  Fmt.pf ppf "@[<h>%a@]" Fmt.(list ~sep:(any "; ") pp_loc) tuple
