(* Program automorphisms, for symmetry reduction.

   An automorphism of a litmus program is a triple (processor permutation,
   memory-location renaming, per-thread register renaming) under which the
   program is invariant: thread [pi(p)]'s instruction list is exactly
   thread [p]'s with every location pushed through the (global) location
   bijection and every register through thread [p]'s register bijection,
   and the initial memory is unchanged as a set of bindings.

   Such a map is an automorphism of every abstract machine's transition
   system here: machine states are built from per-processor components
   plus a location-indexed memory, instructions are matched positionally
   (issue order is per-thread program order, which the permutation
   preserves), and the initial state is fixed by construction.  The final
   (outcome) set of the program is therefore closed under the group — the
   soundness fact the exploration engine's orbit pruning rests on.

   The group is discovered by brute force over processor permutations
   (threads are few: the search is capped at [max_threads]); for each
   candidate the location/register bijections are not guessed but
   *derived* by positional unification of the instruction lists, then
   checked for global consistency and init-memory invariance.  The
   [exists] clause is deliberately ignored: outcome sets are sets of
   final states, closed under the group whether or not the clause is
   symmetric.  (Program-level canonicalization for cache keys, which must
   respect the clause, lives in [Prog_canon].) *)

module Smap = Exp.Smap

type perm = {
  p_proc : int array;  (** image: old processor [p] becomes [p_proc.(p)] *)
  p_loc : (string * string) list;  (** location bijection (old, new) *)
  p_reg : (string * string) list array;
      (** per {e old} processor: register bijection (old, new) into
          processor [p_proc.(p)]'s register space *)
  p_locs : int array;  (** [p_loc] on {!Layout} location ids *)
  p_regs : int array array;
      (** [p_reg] on {!Layout} register ids: per old processor [p], into
          processor [p_proc.(p)]'s ids *)
}

type t = {
  perms : perm list;  (** every non-identity automorphism *)
  order : int;  (** group order, [List.length perms + 1] *)
}

let trivial = { perms = []; order = 1 }
let order t = t.order

(* Automorphism discovery is O(threads! * instrs); past this many threads
   the factorial dominates and litmus programs this wide do not occur. *)
let max_threads = 6

let assoc_default x l = match List.assoc_opt x l with Some y -> y | None -> x

let proc pi p = pi.p_proc.(p)
let rename_loc pi l = assoc_default l pi.p_loc
let rename_reg pi ~proc:p r = assoc_default r pi.p_reg.(p)

let apply_final pi (f : Final.t) =
  let memory =
    Smap.fold
      (fun l v m -> Smap.add (rename_loc pi l) v m)
      f.Final.memory Smap.empty
  in
  let n = Array.length f.Final.regs in
  let regs = Array.make n Smap.empty in
  Array.iteri
    (fun p rm ->
      regs.(pi.p_proc.(p)) <-
        Smap.fold (fun r v m -> Smap.add (rename_reg pi ~proc:p r) v m) rm
          Smap.empty)
    f.Final.regs;
  Final.make ~memory ~regs

(* --- discovery ------------------------------------------------------------- *)

exception No_fit

(* A bijection accumulator: forward and inverse maps, extended
   consistently or not at all. *)
type bij = { mutable fwd : string Smap.t; mutable inv : string Smap.t }

let bij () = { fwd = Smap.empty; inv = Smap.empty }

let unify_bij b x y =
  (match Smap.find_opt x b.fwd with
  | Some y' -> if not (String.equal y y') then raise No_fit
  | None -> (
      match Smap.find_opt y b.inv with
      | Some _ -> raise No_fit
      | None ->
          b.fwd <- Smap.add x y b.fwd;
          b.inv <- Smap.add y x b.inv));
  ()

let rec unify_exp rb e e' =
  match (e, e') with
  | Exp.Const c, Exp.Const c' -> if c <> c' then raise No_fit
  | Exp.Reg r, Exp.Reg r' -> unify_bij rb r r'
  | Exp.Add (a, b), Exp.Add (a', b') | Exp.Sub (a, b), Exp.Sub (a', b') ->
      unify_exp rb a a';
      unify_exp rb b b'
  | _ -> raise No_fit

let unify_instr lb rb i i' =
  match (i, i') with
  | Instr.Load { kind; loc; reg }, Instr.Load { kind = k'; loc = l'; reg = r' }
    ->
      if kind <> k' then raise No_fit;
      unify_bij lb loc l';
      unify_bij rb reg r'
  | ( Instr.Store { kind; loc; value },
      Instr.Store { kind = k'; loc = l'; value = v' } ) ->
      if kind <> k' then raise No_fit;
      unify_bij lb loc l';
      unify_exp rb value v'
  | ( Instr.Rmw { kind; loc; reg; value },
      Instr.Rmw { kind = k'; loc = l'; reg = r'; value = v' } ) ->
      if kind <> k' then raise No_fit;
      unify_bij lb loc l';
      unify_bij rb reg r';
      unify_exp rb value v'
  | ( Instr.Await { kind; loc; expect; reg },
      Instr.Await { kind = k'; loc = l'; expect = e'; reg = r' } ) -> (
      if kind <> k' || expect <> e' then raise No_fit;
      unify_bij lb loc l';
      match (reg, r') with
      | None, None -> ()
      | Some r, Some r' -> unify_bij rb r r'
      | _ -> raise No_fit)
  | Instr.Lock { loc }, Instr.Lock { loc = l' } -> unify_bij lb loc l'
  | Instr.Fence, Instr.Fence -> ()
  | _ -> raise No_fit

(* All permutations of [0..n-1] except the identity, as image arrays. *)
let permutations n =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
        (x :: l) :: List.map (fun r -> y :: r) (insert x rest)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insert x) (perms rest)
  in
  perms (List.init n Fun.id)
  |> List.map Array.of_list
  |> List.filter (fun a -> not (Array.for_all (fun i -> a.(i) = i) (Array.init n Fun.id)))

let automorphism_of prog lay threads pproc =
  let n = Array.length threads in
  (* Shape prune: corresponding threads must have equal lengths. *)
  for p = 0 to n - 1 do
    if List.length threads.(p) <> List.length threads.(pproc.(p)) then
      raise No_fit
  done;
  let lb = bij () in
  let rbs = Array.init n (fun _ -> bij ()) in
  for p = 0 to n - 1 do
    List.iter2 (unify_instr lb rbs.(p)) threads.(p) threads.(pproc.(p))
  done;
  (* Locations appearing only in the init list must map to themselves;
     a program location already claiming that name breaks the bijection. *)
  List.iter
    (fun (l, _) ->
      if not (Smap.mem l lb.fwd) then
        match Smap.find_opt l lb.inv with
        | Some _ -> raise No_fit
        | None ->
            lb.fwd <- Smap.add l l lb.fwd;
            lb.inv <- Smap.add l l lb.inv)
    (Prog.init prog);
  (* Initial memory invariance, as a set of bindings (absent locations
     read 0 on both sides of a bijection, so the listed bindings decide). *)
  let norm bs = List.sort compare bs in
  let init = Prog.init prog in
  let ren l =
    match Smap.find_opt l lb.fwd with Some x -> x | None -> l
  in
  if norm (List.map (fun (l, v) -> (ren l, v)) init) <> norm init then
    raise No_fit;
  let pi =
    {
      p_proc = pproc;
      p_loc = Smap.bindings lb.fwd;
      p_reg = Array.map (fun b -> Smap.bindings b.fwd) rbs;
      p_locs = [||];
      p_regs = [||];
    }
  in
  (* The same bijections on dense ids.  Written registers map to written
     registers (unification pairs instruction targets), so every image
     has an id. *)
  {
    pi with
    p_locs = Array.map (fun l -> Layout.loc_id lay (rename_loc pi l)) lay.Layout.locs;
    p_regs =
      Array.mapi
        (fun p rs ->
          Array.map
            (fun r -> Layout.reg_id lay ~proc:pproc.(p) (rename_reg pi ~proc:p r))
            rs)
        lay.Layout.regs;
  }

let of_prog prog =
  let n = Prog.num_threads prog in
  if n < 2 || n > max_threads then trivial
  else begin
    let threads = Array.of_list (Prog.threads prog) in
    let lay = Layout.cached prog in
    let perms =
      List.filter_map
        (fun pproc ->
          match automorphism_of prog lay threads pproc with
          | a -> Some a
          | exception No_fit -> None)
        (permutations n)
    in
    { perms; order = List.length perms + 1 }
  end

(* The group depends only on the program; cache it across calls.  An
   [Atomic] so parallel exploration domains can race on it safely — a
   lost update merely recomputes the (immutable) group. *)
let cache : (Prog.t * t) option Atomic.t = Atomic.make None

let cached prog =
  match Atomic.get cache with
  | Some (p, g) when p == prog -> g
  | Some _ | None ->
      let g = of_prog prog in
      Atomic.set cache (Some (prog, g));
      g
