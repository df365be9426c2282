(* The reference state keys: each machine's structural key (sorted binding
   lists, buffers as lists of names and values) and its name-based
   permutation, kept as the specification the packed [Key] encoding is
   checked against.  Orbit minima are taken with polymorphic [compare].
   Slow by design; tests only. *)

module Smap = Exp.Smap

module type REF = sig
  type state
  type key

  val canon : state -> key
  val permute : Sym.perm -> key -> key
end

let permute_procs pi f a =
  let out = Array.copy a in
  Array.iteri (fun p x -> out.(Sym.proc pi p) <- f p x) a;
  out

let rename_bindings pi l =
  List.sort compare (List.map (fun (loc, v) -> (Sym.rename_loc pi loc, v)) l)

let rename_reg_bindings pi ~proc:p l =
  List.sort compare (List.map (fun (r, v) -> (Sym.rename_reg pi ~proc:p r, v)) l)

let orbit_min permute perms k =
  List.fold_left
    (fun m pi ->
      let k' = permute pi k in
      if compare k' m < 0 then k' else m)
    k perms

module Sem_ref = struct
  type state = Sem.state
  type key = int array * (string * int) list * (string * int) list array

  let canon (st : state) : key =
    ( Array.map (fun ts -> ts.Sem.next) st.Sem.threads,
      Smap.bindings st.Sem.memory,
      Array.map (fun ts -> Smap.bindings ts.Sem.regs) st.Sem.threads )

  let permute pi ((next, mem, regs) : key) : key =
    ( permute_procs pi (fun _ n -> n) next,
      rename_bindings pi mem,
      permute_procs pi (fun p rb -> rename_reg_bindings pi ~proc:p rb) regs )
end

(* Memory bindings, then per processor [next], registers and a buffer of
   (location, value) pairs. *)
type buffered = (string * int) list * (int * (string * int) list * (string * int) list) array

let permute_buffered pi ((mem, procs) : buffered) : buffered =
  ( rename_bindings pi mem,
    permute_procs pi
      (fun p (next, regs, buf) ->
        ( next,
          rename_reg_bindings pi ~proc:p regs,
          List.map (fun (l, v) -> (Sym.rename_loc pi l, v)) buf ))
      procs )

module Wbuf_ref = struct
  type state = M_wbuf.state
  type key = buffered

  let canon (st : state) : key =
    ( Smap.bindings st.M_wbuf.memory,
      Array.map
        (fun pr -> (pr.M_wbuf.next, Smap.bindings pr.M_wbuf.regs, pr.M_wbuf.wbuf))
        st.M_wbuf.procs )

  let permute = permute_buffered
end

module Def1_ref = struct
  type state = M_def1.state
  type key = buffered

  let canon (st : state) : key =
    ( Smap.bindings st.M_def1.memory,
      Array.map
        (fun pr ->
          ( pr.M_def1.next,
            Smap.bindings pr.M_def1.regs,
            List.map (fun w -> (w.M_def1.wloc, w.M_def1.wval)) pr.M_def1.pending ))
        st.M_def1.procs )

  let permute = permute_buffered
end

module Rc_ref = struct
  type state = M_rc.state
  type key = buffered

  let canon (st : state) : key =
    ( Smap.bindings st.M_rc.memory,
      Array.map
        (fun pr ->
          ( pr.M_rc.next,
            Smap.bindings pr.M_rc.regs,
            List.map (fun w -> (w.M_rc.wloc, w.M_rc.wval)) pr.M_rc.pending ))
        st.M_rc.procs )

  let permute = permute_buffered
end

module Rp3_ref = struct
  type state = M_rp3.state
  type key = buffered

  let canon (st : state) : key =
    ( Smap.bindings st.M_rp3.memory,
      Array.map
        (fun pr ->
          ( pr.M_rp3.next,
            Smap.bindings pr.M_rp3.regs,
            List.map (fun w -> (w.M_rp3.wloc, w.M_rp3.wval)) pr.M_rp3.pending ))
        st.M_rp3.procs )

  let permute = permute_buffered
end

module Ooo_ref = struct
  type state = M_ooo.state
  type key = (string * int) list * (int * (string * int) list) array

  let canon (st : state) : key =
    ( Smap.bindings st.M_ooo.memory,
      Array.map
        (fun pr -> (pr.M_ooo.executed, Smap.bindings pr.M_ooo.regs))
        st.M_ooo.procs )

  (* The executed mask indexes instructions, which automorphisms map
     positionally: it moves with the processor unchanged. *)
  let permute pi ((mem, procs) : key) : key =
    ( rename_bindings pi mem,
      permute_procs pi
        (fun p (executed, regs) -> (executed, rename_reg_bindings pi ~proc:p regs))
        procs )
end

(* def2, either configuration: reservations sorted by location, then by
   owner, so a renaming re-sorts both levels. *)
module Def2_ref (D : module type of M_def2.Base) = struct
  type state = D.state

  type key =
    (string * int) list
    * (int * (string * int) list * (string * int * int) list * int) array
    * (string * (int * int) list) list

  let canon (st : state) : key =
    ( Smap.bindings st.D.memory,
      Array.map
        (fun pr ->
          ( pr.D.next,
            Smap.bindings pr.D.regs,
            List.map (fun w -> (w.D.wloc, w.D.wval, w.D.seq)) pr.D.pending,
            pr.D.nseq ))
        st.D.procs,
      List.map
        (fun (l, rs) -> (l, List.map (fun r -> (r.D.rproc, r.D.watermark)) rs))
        st.D.resvs )

  let permute pi ((mem, procs, resvs) : key) : key =
    ( rename_bindings pi mem,
      permute_procs pi
        (fun p (next, regs, pend, nseq) ->
          ( next,
            rename_reg_bindings pi ~proc:p regs,
            List.map (fun (l, v, s) -> (Sym.rename_loc pi l, v, s)) pend,
            nseq ))
        procs,
      List.map
        (fun (l, rs) ->
          ( Sym.rename_loc pi l,
            List.sort compare (List.map (fun (rp, w) -> (Sym.proc pi rp, w)) rs) ))
        resvs
      |> List.sort compare )
end

module Def2_base_ref = Def2_ref (M_def2.Base)
module Def2_rs_ref = Def2_ref (M_def2.Read_sync_relaxed)
