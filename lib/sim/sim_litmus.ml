(* Run litmus programs ([Prog.t]) on the timing simulator.

   The abstract machines in [lib/machine] enumerate every outcome a model
   allows; the simulator executes one concrete schedule under a policy.
   This bridge interprets the litmus instruction set over the protocol so
   the same corpus drives both — in particular the fault-injection
   campaigns: a seeded fault schedule perturbs the interconnect, and the
   resulting outcome must still be one the model allows (for DRF0 programs
   under a weakly-ordered policy: an SC outcome).

   Interpretation notes:
   - threads are straight-line, so register environments are evaluated at
     issue time (all program-order-previous loads have completed by
     construction of the continuation chain);
   - every RMW executes as an exclusive-line atomic via [Cpu.sync_modify];
     a [Data]-kind RMW is timed the same way (the protocol has one RMW
     path) though the trace records it as synchronization;
   - [Fence] waits for the issuing processor's outstanding-access counter
     to read zero (the RP3 fence);
   - [Await]/[Lock] spin with the configured backoff interval. *)

module Smap = Exp.Smap

type run = {
  final : Final.t;
  total_cycles : int;
  messages : int;
  retransmits : int;
  nacks : int;
  txn_timeouts : int;
  dups_suppressed : int;
  reorders : int;
  sanitizer_checks : int;
  spin_iters : int;
  stalls : Obs.Stall.t;
}

let exec_instr ctx proc regs instr k =
  match instr with
  | Instr.Load { kind; loc; reg } ->
      let bind v =
        regs := Smap.add reg v !regs;
        k ()
      in
      (match kind with
      | Instr.Data -> Cpu.data_read ctx proc loc bind
      | Instr.Sync -> Cpu.sync_read ctx proc loc bind)
  | Instr.Store { kind; loc; value } -> (
      let v = Exp.eval !regs value in
      match kind with
      | Instr.Data -> Cpu.data_write ctx proc loc v k
      | Instr.Sync ->
          Cpu.sync_modify ctx proc loc ~reads:false ~writes:true
            (fun _ -> v)
            (fun _ -> k ()))
  | Instr.Rmw { kind = _; loc; reg; value } ->
      (* reg := mem[loc]; mem[loc] := value (which may mention reg) *)
      Cpu.sync_modify ctx proc loc ~reads:true ~writes:true
        (fun old -> Exp.eval (Smap.add reg old !regs) value)
        (fun old ->
          regs := Smap.add reg old !regs;
          k ())
  | Instr.Await { kind; loc; expect; reg } ->
      let rec iter () =
        ctx.Cpu.stats.(proc).Cpu.spin_iters <-
          ctx.Cpu.stats.(proc).Cpu.spin_iters + 1;
        let check v =
          if v = expect then begin
            (match reg with
            | Some r -> regs := Smap.add r v !regs
            | None -> ());
            k ()
          end
          else Cpu.spin_delay ctx iter
        in
        match kind with
        | Instr.Sync -> Cpu.sync_read ctx proc loc check
        | Instr.Data -> Cpu.data_read ctx proc loc check
      in
      iter ()
  | Instr.Lock { loc } ->
      let rec attempt () =
        Cpu.sync_modify ctx proc loc ~reads:true ~writes:true
          (fun v -> if v = 0 then 1 else v)
          (fun old ->
            if old = 0 then k ()
            else begin
              ctx.Cpu.stats.(proc).Cpu.lock_retries <-
                ctx.Cpu.stats.(proc).Cpu.lock_retries + 1;
              Cpu.spin_delay ctx attempt
            end)
      in
      attempt ()
  | Instr.Fence -> Proto.when_counter_zero ctx.Cpu.proto proc k

let rec exec_thread ctx proc regs instrs k =
  match instrs with
  | [] -> k ()
  | i :: rest -> exec_instr ctx proc regs i (fun () -> exec_thread ctx proc regs rest k)

let run ?cfg ?(limit = 10_000_000) ?(obs = Obs.null) ?(on_wedged = ignore)
    policy prog =
  let nprocs = Prog.num_threads prog in
  let cfg =
    match cfg with
    | Some c -> { c with Sim_config.nprocs }
    | None -> Sim_config.make ~nprocs ()
  in
  let eng = Engine.create () in
  let stalls = Obs.Stall.create () in
  let proto = Proto.create ~init:(Prog.init prog) ~obs ~stalls cfg eng in
  let sanitizer =
    if cfg.Sim_config.sanitize then Some (Sim_sanitizer.install proto)
    else None
  in
  let ctx =
    {
      Cpu.cfg;
      eng;
      proto;
      policy;
      stats = Array.init nprocs (fun _ -> Cpu.fresh_stats ());
      observations = [];
      trace = [];
      op_seq = Array.make nprocs 0;
      obs;
      stalls;
    }
  in
  let regs = Array.init nprocs (fun _ -> ref Smap.empty) in
  let done_flags = Array.make nprocs false in
  List.iteri
    (fun p instrs ->
      Engine.schedule eng ~delay:0 (fun () ->
          exec_thread ctx p regs.(p) instrs (fun () ->
              ctx.Cpu.stats.(p).Cpu.finish <- Engine.now eng;
              Proto.when_counter_zero proto p (fun () ->
                  ctx.Cpu.stats.(p).Cpu.drained <- Engine.now eng;
                  done_flags.(p) <- true))))
    (Prog.threads prog);
  (* As in [Sim_run]: the watchdog hook fires with the diagnostic before
     the abort unwinds, so checkpointed campaigns can dump a resume
     point. *)
  let wedge diag =
    on_wedged diag;
    raise (Sim_run.Wedged diag)
  in
  (try Engine.run ~limit eng with
  | Engine.Out_of_time ->
      wedge
        (Printf.sprintf
           "livelock: %s exceeded the %d-cycle limit with events still \
            firing\n%s"
           (Prog.name prog) limit (Proto.dump proto))
  | Proto.Stuck diag -> wedge ("stuck: " ^ diag));
  if not (Array.for_all Fun.id done_flags) then
    wedge
      (Printf.sprintf
         "deadlock: %s drained its event queue with blocked thread(s)\n%s"
         (Prog.name prog) (Proto.dump proto));
  Option.iter Sim_sanitizer.check sanitizer;
  let memory =
    List.fold_left
      (fun m loc -> Smap.add loc (Proto.settled_value proto loc) m)
      Smap.empty (Prog.locations prog)
  in
  let final = Final.make ~memory ~regs:(Array.map ( ! ) regs) in
  let stats = Proto.stats proto in
  let nstats = Net.stats (Proto.net proto) in
  {
    final;
    total_cycles =
      Array.fold_left (fun m s -> max m s.Cpu.finish) 0 ctx.Cpu.stats;
    messages = stats.Proto.messages;
    retransmits = nstats.Net.retransmits;
    nacks = stats.Proto.nacks;
    txn_timeouts = stats.Proto.txn_timeouts;
    dups_suppressed = nstats.Net.dups_suppressed;
    reorders = nstats.Net.reorders;
    sanitizer_checks =
      (match sanitizer with Some s -> Sim_sanitizer.checks s | None -> 0);
    spin_iters =
      Array.fold_left (fun a s -> a + s.Cpu.spin_iters) 0 ctx.Cpu.stats;
    stalls;
  }

let try_run ?cfg ?limit ?obs ?on_wedged policy prog =
  match run ?cfg ?limit ?obs ?on_wedged policy prog with
  | r -> Ok r
  | exception Sim_run.Wedged d ->
      if String.length d >= 8 && String.sub d 0 8 = "livelock" then
        Error (Sim_run.Livelock d)
      else Error (Sim_run.Deadlock d)
  | exception Sim_sanitizer.Violation d -> Error (Sim_run.Invariant d)
  | exception Proto.Stuck d -> Error (Sim_run.Deadlock d)

(* --- semantic outcome comparison ------------------------------------------- *)

(* [Final.compare] is structural on the underlying maps, so [{x=0}] and
   [{}] differ even though both mean "x reads 0".  Membership of a
   simulator outcome in a model's outcome set must therefore compare
   semantically: same value for every location the program mentions, and
   same value for every register the program assigns. *)

let registers_of prog =
  List.mapi
    (fun _ instrs -> List.filter_map Instr.target_register instrs)
    (Prog.threads prog)

let matches prog a b =
  List.for_all (fun loc -> Final.mem a loc = Final.mem b loc) (Prog.locations prog)
  && List.for_all2
       (fun p rs ->
         List.for_all (fun r -> Final.reg a p r = Final.reg b p r) rs)
       (List.init (Prog.num_threads prog) Fun.id)
       (registers_of prog)

let in_set prog f set = Final.Set.exists (matches prog f) set
