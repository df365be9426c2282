(* Registry of abstract hardware machines with a uniform interface. *)

module Sc_x = Explore.Make (M_sc)
module Wbuf_x = Explore.Make (M_wbuf)
module Ooo_x = Explore.Make (M_ooo)
module Def1_x = Explore.Make (M_def1)
module Def2_x = Explore.Make (M_def2.Base)
module Def2_rs_x = Explore.Make (M_def2.Read_sync_relaxed)
module Rp3_x = Explore.Make (M_rp3)
module Rc_x = Explore.Make (M_rc)

type t = {
  name : string;
  descr : string;
  explore :
    domains:int ->
    adaptive:bool ->
    reduce:bool ->
    por_min:int option ->
    fuel:int option ->
    rcfg:Explore.rcfg ->
    Prog.t ->
    Explore.run_result;
  snapshot_frontier_length : string -> int;
}

let name m = m.name
let descr m = m.descr

let explore ?(domains = 1) ?(adaptive = true) ?(reduce = true)
    ?por_min_instrs ?fuel ?(rcfg = Explore.rcfg_default) m prog =
  m.explore ~domains ~adaptive ~reduce ~por_min:por_min_instrs ~fuel ~rcfg prog

let snapshot_frontier_length m bytes = m.snapshot_frontier_length bytes

let outcomes m prog =
  Explore.bounded_value
    (m.explore ~domains:1 ~adaptive:true ~reduce:true ~por_min:None ~fuel:None
       ~rcfg:Explore.rcfg_default prog)
      .Explore.result

let outcomes_bounded m ~fuel prog =
  if fuel < 0 then invalid_arg "Machines.outcomes_bounded: negative fuel";
  (m.explore ~domains:1 ~adaptive:true ~reduce:true ~por_min:None
     ~fuel:(Some fuel) ~rcfg:Explore.rcfg_default prog)
    .Explore.result

let of_engine
    (run :
      ?domains:int -> ?adaptive:bool -> ?reduce:bool -> ?por_min_instrs:int ->
      ?fuel:int -> ?rcfg:Explore.rcfg -> Prog.t -> Explore.run_result) =
  fun ~domains ~adaptive ~reduce ~por_min ~fuel ~rcfg prog ->
    run ~domains ~adaptive ~reduce ?por_min_instrs:por_min ?fuel ~rcfg prog

let sc =
  {
    name = "sc";
    descr = "sequentially consistent reference machine (atomic, in order)";
    explore = of_engine Sc_x.run;
    snapshot_frontier_length = Sc_x.snapshot_frontier_length;
  }

let wbuf =
  {
    name = "wbuf";
    descr =
      "FIFO write buffers with read bypass — Figure 1's bus configurations";
    explore = of_engine Wbuf_x.run;
    snapshot_frontier_length = Wbuf_x.snapshot_frontier_length;
  }

let ooo =
  {
    name = "ooo";
    descr =
      "out-of-order issue with register interlocks — Figure 1's network \
       configurations";
    explore = of_engine Ooo_x.run;
    snapshot_frontier_length = Ooo_x.snapshot_frontier_length;
  }

let def1 =
  {
    name = "def1";
    descr =
      "Definition-1 weak ordering (Dubois/Scheurich/Briggs): syncs stall \
       for previous accesses and vice versa";
    explore = of_engine Def1_x.run;
    snapshot_frontier_length = Def1_x.snapshot_frontier_length;
  }

let def2 =
  {
    name = "def2";
    descr =
      "the paper's implementation (Section 5.3): sync ops commit without \
       stalling; reservations delay other processors' syncs (condition 5)";
    explore = of_engine Def2_x.run;
    snapshot_frontier_length = Def2_x.snapshot_frontier_length;
  }

let def2_rs =
  {
    name = "def2-rs";
    descr =
      "Section 6 refinement of def2: read-only sync ops do not place \
       reservations";
    explore = of_engine Def2_rs_x.run;
    snapshot_frontier_length = Def2_rs_x.snapshot_frontier_length;
  }

let rp3 =
  {
    name = "rp3";
    descr =
      "RP3 fence option (Section 2.1): syncs travel like data; only an \
       explicit fence waits for outstanding acknowledgements";
    explore = of_engine Rp3_x.run;
    snapshot_frontier_length = Rp3_x.snapshot_frontier_length;
  }

let rc =
  {
    name = "rc";
    descr =
      "release consistency: releases drain the issuer's pending accesses; \
       acquires do not wait (weakly ordered w.r.t. DRF1)";
    explore = of_engine Rc_x.run;
    snapshot_frontier_length = Rc_x.snapshot_frontier_length;
  }

let all = [ sc; wbuf; ooo; def1; def2; def2_rs; rp3; rc ]

let find n = List.find_opt (fun m -> String.equal m.name n) all

let allows m prog cond = Cond.satisfiable_in (outcomes m prog) cond

let allows_exists m prog = Option.map (allows m prog) (Prog.exists prog)

(* Definition 2's "appears SC".  Sweeps comparing every machine against
   one program pass the SC set in, so SC is enumerated once. *)
let appears_sc ?sc:sc_set m prog =
  let sc_set = match sc_set with Some s -> s | None -> outcomes sc prog in
  Final.Set.subset (outcomes m prog) sc_set
