(* Dense ids for a program's locations and registers, in String.compare
   order, and the binding-segment encoding of a name-keyed map over them
   (presence-mask words, then one value per name). *)

module Smap = Exp.Smap

type t = { locs : string array; regs : string array array }

let of_prog prog =
  let regs_of instrs =
    List.filter_map Instr.target_register instrs
    |> List.sort_uniq String.compare |> Array.of_list
  in
  {
    locs = Array.of_list (Prog.locations prog);
    regs = Array.of_list (List.map regs_of (Prog.threads prog));
  }

let cache : (Prog.t * t) option Atomic.t = Atomic.make None

let cached prog =
  match Atomic.get cache with
  | Some (p, l) when p == prog -> l
  | Some _ | None ->
      let l = of_prog prog in
      Atomic.set cache (Some (prog, l));
      l

let nprocs t = Array.length t.regs
let nlocs t = Array.length t.locs
let nregs t p = Array.length t.regs.(p)

(* Binary search over a sorted name array. *)
let find what names x =
  let rec go lo hi =
    if lo >= hi then invalid_arg (Printf.sprintf "Layout: unknown %s %S" what x)
    else
      let mid = (lo + hi) lsr 1 in
      let c = String.compare x names.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length names)

let loc_id t l = find "location" t.locs l
let reg_id t ~proc r = find "register" t.regs.(proc) r

let bits = Sys.int_size - 1
let words n = (n + bits - 1) / bits
let map_size n = words n + n

(* [Smap] iterates in String.compare order, the order ids were assigned
   in, so one forward walk over [names] places every binding. *)
let put_map (k : int array) ~at names m =
  let n = Array.length names in
  let vals = at + words n in
  let j = ref 0 in
  Smap.iter
    (fun name v ->
      while !j < n && not (String.equal names.(!j) name) do incr j done;
      if !j = n then invalid_arg (Printf.sprintf "Layout.put_map: unknown name %S" name);
      let s = !j in
      let w = at + (s / bits) in
      k.(w) <- k.(w) lor (1 lsl (s mod bits));
      k.(vals + s) <- v)
    m

type shape = { fixed : int; width : int }
type enc = { ek : int array; mutable at : int; lay : t }

let int e v =
  e.ek.(e.at) <- v;
  e.at <- e.at + 1

let loc e l = int e (loc_id e.lay l)

(* A writer callback must write exactly its share of the record. *)
let wrote e ~from what n =
  if e.at <> from + n then invalid_arg (Printf.sprintf "Layout.encode: %s not %d ints" what n)

let rec put_entries e width entry = function
  | [] -> ()
  | x :: rest ->
      let from = e.at in
      entry e x;
      wrote e ~from "an entry" width;
      put_entries e width entry rest

let encode lay { fixed = nfixed; width } ?(tail = 0) ?(entries = fun _ -> [])
    ?(entry = fun _ _ -> ()) memory procs ~fixed ~regs =
  let size = ref (map_size (nlocs lay) + tail) in
  for p = 0 to nprocs lay - 1 do
    size := !size + nfixed + map_size (nregs lay p);
    if width > 0 then size := !size + 1 + (width * List.length (entries procs.(p)))
  done;
  let e = { ek = Array.make !size 0; at = map_size (nlocs lay); lay } in
  put_map e.ek ~at:0 lay.locs memory;
  for p = 0 to nprocs lay - 1 do
    let pr = procs.(p) in
    let from = e.at in
    fixed e pr;
    wrote e ~from "the fixed part" nfixed;
    put_map e.ek ~at:e.at lay.regs.(p) (regs pr);
    e.at <- e.at + map_size (nregs lay p);
    if width > 0 then begin
      let es = entries pr in
      int e (List.length es);
      put_entries e width entry es
    end
  done;
  e

let finish e =
  if e.at <> Array.length e.ek then invalid_arg "Layout.finish: key not filled";
  e.ek
