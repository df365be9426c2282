(* Definition 2, executable:

     "Hardware is weakly ordered with respect to a synchronization model if
      and only if it appears sequentially consistent to all software that
      obey the synchronization model."

   A synchronization model is a predicate on programs; hardware is any
   source of outcome sets (an abstract machine, an axiomatic model, or a
   timing simulator's reachable results).  "Appears sequentially
   consistent" for one program means the hardware's outcome set is included
   in the SC outcome set.  Definition 2 itself quantifies over all
   programs; [verify] checks it over a finite corpus and reports every
   counterexample, which is the strongest mechanical statement available. *)

type sync_model = { model_name : string; obeys : Prog.t -> bool }

let drf0 = { model_name = "DRF0"; obeys = (fun p -> Drf.obeys ~model:Drf.DRF0 p) }
let drf1 = { model_name = "DRF1"; obeys = (fun p -> Drf.obeys ~model:Drf.DRF1 p) }

let unconstrained = { model_name = "all-programs"; obeys = (fun _ -> true) }

(* A synchronization model for fence-based hardware (the RP3 option of
   Section 2.1): the software's obligation is to separate every
   Shasha-Snir delay pair with a fence.  Hardware that respects fences,
   coherence and atomicity then appears sequentially consistent — a second
   instance of Definition 2, with a very different contract than DRF0. *)
let fenced_delays =
  {
    model_name = "fenced-delays";
    obeys =
      (fun prog ->
        let evts = Evts.of_prog prog in
        let fence_between (a, b) =
          let ea = Evts.event evts a and eb = Evts.event evts b in
          List.exists
            (fun f ->
              let ef = Evts.event evts f in
              ef.Event.proc = ea.Event.proc
              && ef.Event.index > ea.Event.index
              && ef.Event.index < eb.Event.index)
            (Evts.fences evts)
        in
        List.for_all fence_between (Delay_set.delay_pairs evts));
  }

type hardware = { hw_name : string; outcomes : Prog.t -> Final.Set.t }

let of_machine ?(domains = 1) ?(reduce = true) m =
  {
    hw_name = Machines.name m;
    outcomes =
      (fun prog ->
        Explore.bounded_value
          (Machines.explore ~domains ~reduce m prog).Explore.result);
  }

let of_model m = { hw_name = Models.name m; outcomes = Models.outcomes m }

(* [por:false] forces the unreduced SC sweep as the reference set — the
   CLI's --no-por escape hatch; the sets are identical (checked
   differentially), only the enumeration strategy differs. *)
let appears_sc ?(por = true) hw prog =
  Final.Set.subset (hw.outcomes prog) (Sc.outcomes ~reduce:por prog)

type coverage = Exhaustive | Bounded of string

let coverage_string = function
  | Exhaustive -> "exhaustive"
  | Bounded reason -> "bounded:" ^ reason

type verdict = {
  program : Prog.t;
  obeys_model : bool;
  sc_appearance : bool;
  ok : bool;  (** [obeys_model] implies [sc_appearance] *)
  coverage : coverage;
  states : int;
  reduced : bool;
  sym_group : int;
  sym_hits : int;
  spilled_runs : int;
  spilled_keys : int;
}

type report = {
  hardware : string;
  model : string;
  verdicts : verdict list;
  weakly_ordered : bool;  (** no counterexample in the corpus *)
}

let report_exhaustive r =
  List.for_all (fun v -> v.coverage = Exhaustive) r.verdicts

let verify ?(por = true) ~hw ~model corpus =
  let verdicts =
    List.map
      (fun program ->
        let obeys_model = model.obeys program in
        let sc_appearance = appears_sc ~por hw program in
        {
          program;
          obeys_model;
          sc_appearance;
          ok = (not obeys_model) || sc_appearance;
          coverage = Exhaustive;
          states = 0;
          reduced = por;
          sym_group = 1;
          sym_hits = 0;
          spilled_runs = 0;
          spilled_keys = 0;
        })
      corpus
  in
  {
    hardware = hw.hw_name;
    model = model.model_name;
    verdicts;
    weakly_ordered = List.for_all (fun v -> v.ok) verdicts;
  }

let counterexamples report =
  List.filter (fun v -> not v.ok) report.verdicts

(* Genuinely weaker than SC: some corpus program exhibits a non-SC outcome.
   (A machine could trivially be weakly ordered by being SC.) *)
let weaker_than_sc ~hw corpus =
  List.exists (fun p -> not (appears_sc hw p)) corpus

let pp_verdict ppf v =
  Fmt.pf ppf "%-20s obeys=%-5b appears-SC=%-5b %s%s%s" (Prog.name v.program)
    v.obeys_model v.sc_appearance
    (if v.ok then "ok" else "COUNTEREXAMPLE")
    (match v.coverage with
    | Exhaustive -> ""
    | Bounded _ as c -> " [" ^ coverage_string c ^ "]")
    (if v.reduced then "" else " [unreduced]")

let pp_report ppf r =
  Fmt.pf ppf "@[<v>hardware %s w.r.t. %s: %s@,%a@]" r.hardware r.model
    (if r.weakly_ordered then
       if report_exhaustive r then "weakly ordered (on this corpus)"
       else "no counterexample found (BOUNDED coverage on this corpus)"
     else "NOT weakly ordered")
    Fmt.(list ~sep:cut pp_verdict)
    r.verdicts

(* --- resumable verification ------------------------------------------------ *)

(* [verify_machine] is [verify] for an abstract machine, with the
   resilience layer threaded through: budgets stop the sweep at a safe
   point, the whole campaign state — finished verdicts, position, and the
   in-flight program's exploration snapshot — is marshalled into one
   CRC-checked checkpoint file (atomically installed), and [~resume]
   restarts from exactly there.  Identity (machine, model, corpus) is
   validated on resume; mismatches raise {!Explore.Resume_rejected},
   never silently explore the wrong campaign. *)

type run_report = {
  report : report;
  suspended : Explore.stop_reason option;
      (** [Some r]: the budget stopped the campaign; the report covers
          only the programs finished so far and a checkpoint (if
          configured) holds the resume point *)
  recovered : bool;
      (** the resume checkpoint came from the [.prev] last-good
          generation (the primary was corrupt or missing) *)
}

let prog_fp prog = Format.asprintf "%s|%a" (Prog.name prog) Prog.pp prog

type vckpt = {
  ck_machine : string;
  ck_model : string;
  ck_corpus : string list;  (* program fingerprints, in corpus order *)
  ck_done : verdict list;  (* finished verdicts, in corpus order *)
  ck_pos : int;  (* index of the in-flight program *)
  ck_inner : string option;  (* its framed explore snapshot, if any *)
}

(* "verify3": checkpointed verdicts lost the degradation mark and the
   coverage flag; older checkpoints are rejected by kind rather than
   misread. *)
let verify_kind = "weakord.verify3"

let write_vckpt path ck =
  Snapshot.write_file path
    (Snapshot.frame ~kind:verify_kind
       ~meta:
         (Printf.sprintf "%s vs %s, program %d/%d" ck.ck_machine ck.ck_model
            ck.ck_pos
            (List.length ck.ck_corpus))
       ~payload:(Marshal.to_string ck []))

let load_vckpt path =
  match Snapshot.load path with
  | Error (e, _) ->
      raise
        (Explore.Resume_rejected
           (Printf.sprintf "cannot resume from %s: %s" path
              (Snapshot.error_string e)))
  | Ok { Snapshot.container = c; recovered } ->
      if not (String.equal c.Snapshot.kind verify_kind) then
        raise
          (Explore.Resume_rejected
             (Printf.sprintf "%s holds a %S snapshot, expected %S" path
                c.Snapshot.kind verify_kind));
      let ck =
        try (Marshal.from_string c.Snapshot.payload 0 : vckpt)
        with Failure _ | Invalid_argument _ ->
          raise
            (Explore.Resume_rejected
               (path ^ ": checkpoint payload does not unmarshal"))
      in
      (ck, recovered)

let verify_machine ?(domains = 1) ?fuel ?(por = true) ?(sym = true)
    ?spill_dir ?budget ?checkpoint
    ?(checkpoint_every = Explore.checkpoint_every_default) ?resume ?(obs = Obs.null) ?(on_event = ignore) ~machine ~model corpus =
  let corpus_a = Array.of_list corpus in
  let fps = List.map prog_fp corpus in
  let mname = Machines.name machine in
  let start_pos, done0, inner0, recovered =
    match resume with
    | None -> (0, [], None, false)
    | Some path ->
        let ck, recovered = load_vckpt path in
        if not (String.equal ck.ck_machine mname) then
          raise
            (Explore.Resume_rejected
               (Printf.sprintf
                  "checkpoint is for machine %s, this run verifies %s"
                  ck.ck_machine mname));
        if not (String.equal ck.ck_model model.model_name) then
          raise
            (Explore.Resume_rejected
               (Printf.sprintf
                  "checkpoint is for model %s, this run verifies %s"
                  ck.ck_model model.model_name));
        if ck.ck_corpus <> fps then
          raise
            (Explore.Resume_rejected
               "checkpoint was taken over a different corpus (program \
                fingerprints differ)");
        on_event
          (Printf.sprintf "resuming %s vs %s at program %d/%d%s" mname
             model.model_name ck.ck_pos (List.length fps)
             (if recovered then
                " (recovered from the last-good .prev generation)"
              else ""));
        (ck.ck_pos, ck.ck_done, ck.ck_inner, recovered)
  in
  (* A memory budget spills.  Under a checkpoint the runs go next to it,
     so the snapshots the checkpoint holds name files that survive a
     kill; otherwise each sweep spills into a private temporary
     directory. *)
  let spill_dir =
    match (spill_dir, Option.bind budget Budget.mem_bytes) with
    | None, Some _ ->
        let anchor = if checkpoint <> None then checkpoint else resume in
        Option.map (fun p -> p ^ ".spill") anchor
    | _ -> spill_dir
  in
  let done_rev = ref (List.rev done0) in
  let inner_pending = ref inner0 in
  let suspended = ref None in
  let save pos inner =
    match checkpoint with
    | None -> ()
    | Some path ->
        write_vckpt path
          {
            ck_machine = mname;
            ck_model = model.model_name;
            ck_corpus = fps;
            ck_done = List.rev !done_rev;
            ck_pos = pos;
            ck_inner = inner;
          }
  in
  let n = Array.length corpus_a in
  let pos = ref start_pos in
  while !suspended = None && !pos < n do
    let program = corpus_a.(!pos) in
    let obeys_model = model.obeys program in
    let rcfg =
      {
        Explore.budget;
        checkpoint_every;
        snapshot_sink =
          (if checkpoint = None then None
           else Some (fun bytes -> save !pos (Some bytes)));
        resume = !inner_pending;
        sym;
        spill_dir;
        obs;
        on_event;
        cancel = None;
      }
    in
    inner_pending := None;
    let r = Machines.explore ~domains ~reduce:por ?fuel ~rcfg machine program in
    match r.Explore.stop with
    | Some reason ->
        (* The engine already handed its final snapshot to the sink, so
           the checkpoint on disk points at this program's frontier. *)
        suspended := Some reason;
        if checkpoint = None then save !pos None
    | None -> (
        let hw_set = Explore.bounded_value r.Explore.result in
        (* Deadline only: the SC reference sets are small, not what the
           memory budget protects. *)
        let sc =
          Machines.explore ~reduce:por
            ~rcfg:
              {
                Explore.rcfg_default with
                Explore.budget = Option.map Budget.deadline_only budget;
                sym;
              }
            Machines.sc program
        in
        let sc_set = Explore.bounded_value sc.Explore.result in
        let sc_complete = sc.Explore.stop = None in
        let subset = Final.Set.subset hw_set sc_set in
        if (not sc_complete) && not subset then begin
          (* Inconclusive: against a partial SC reference only a positive
             subset test is sound — a missing outcome may be a real
             violation or just missing SC coverage.  Suspend; the resumed
             run (with budget left) redoes this program. *)
          suspended := sc.Explore.stop;
          save !pos None
        end
        else begin
          (* [subset] is trustworthy here: the hardware sweep is
             complete, and a positive against a partial SC reference is
             still sound. *)
          let coverage =
            if sc_complete then Exhaustive else Bounded "sc-budget"
          in
          done_rev :=
            {
              program;
              obeys_model;
              sc_appearance = subset;
              ok = (not obeys_model) || subset;
              coverage;
              states = r.Explore.stats.Explore.states_expanded;
              reduced = r.Explore.stats.Explore.por_enabled;
              sym_group = r.Explore.stats.Explore.sym_group;
              sym_hits = r.Explore.stats.Explore.sym_hits;
              spilled_runs = r.Explore.stats.Explore.spilled_runs;
              spilled_keys = r.Explore.stats.Explore.spilled_keys;
            }
            :: !done_rev;
          incr pos;
          save !pos None
        end)
  done;
  let verdicts = List.rev !done_rev in
  {
    report =
      {
        hardware = mname;
        model = model.model_name;
        verdicts;
        weakly_ordered = List.for_all (fun v -> v.ok) verdicts;
      };
    suspended = !suspended;
    recovered;
  }
