(** Exhaustive exploration of abstract machines: hash-consed transposition
    table, optional parallel (multi-domain) frontier sweep, fuel bounds —
    and the resilience layer: wall-clock/memory budgets checked at safe
    points, crash-safe checkpoints of the frontier + transposition table,
    resume, and an exact disk-spilling visited set under memory
    pressure. *)

type 'a bounded = Complete of 'a | Partial of 'a
(** [Partial] means coverage cannot be trusted to be exhaustive: a bound
    (fuel, deadline, cancellation) cut the sweep short.  A memory budget
    never does — it spills.  The carried set is always a sound
    {e subset} of the complete outcome set (exploration only cuts
    branches, never invents outcomes) — so any violation it contains is
    real. *)

val bounded_value : 'a bounded -> 'a
(** Drop the completeness marker. *)

val is_complete : 'a bounded -> bool
(** The sweep was exhaustive and the visited set exact. *)

type stop_reason =
  | Fuel_exhausted  (** the distinct-states-expanded bound was reached *)
  | Deadline_exceeded  (** the budget's wall-clock deadline passed *)
  | Cancelled
      (** the [rcfg.cancel] hook asked the sweep to stop — a supervisor
          draining its workers, a per-job soft timeout *)

val stop_reason_string : stop_reason -> string
(** ["fuel"], ["deadline"] or ["cancel"]. *)

type stats = {
  states_expanded : int;
      (** distinct states expanded — equal across strategies on a
          [Complete] run *)
  domains_used : int;  (** domains that ran the sweep (1 = sequential) *)
  claimed : int;
      (** distinct states claimed in the transposition table; equals
          [states_expanded] on every run now that budget stops leave
          unexpanded states in the frontier rather than claiming them *)
  claimed_per_shard : int array;
      (** claimed states per claim-table shard — the shard-balance view;
          a single cell on sequential runs *)
  donations : int;
      (** work-donation events: batches a busy domain handed to a
          starving one (0 on sequential runs) *)
  table_buckets : int;
      (** total hash-table buckets across shards; [claimed /.
          table_buckets] is the load factor ([0] with a spill store,
          which replaces the table) *)
  max_probe : int;  (** longest bucket chain in any shard — probe cost *)
  por_enabled : bool;
      (** partial-order reduction was active for this run (the machine
          declared an oracle and the program cleared the size guard) *)
  oracle_calls : int;
      (** non-final expansions that consulted the oracle *)
  ample_hits : int;
      (** expansions where the oracle proved a single ample transition
          sufficient — on parallel runs, summed over workers *)
  suppressed : int;
      (** transitions present in the full successor relation that the
          reduction did not fire (ample- plus sleep-suppressed) *)
  sym_group : int;
      (** order of the program's automorphism group used by this run
          ([1]: symmetry reduction off or the group is trivial) *)
  sym_hits : int;
      (** frontier states whose transposition-table probe was redirected
          to a different orbit representative — each is a state class the
          symmetry reduction may merge *)
  spilled_runs : int;
      (** immutable visited-set runs written to the spill directory
          ([0] without a spill store) *)
  spilled_keys : int;  (** visited keys resident on disk rather than RAM *)
}
(** Telemetry from one exploration sweep. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line: states, claims, shards, donations, table occupancy,
    reduction counters. *)

type run_result = {
  result : Final.Set.t bounded;
  stats : stats;
  stop : stop_reason option;
      (** why the sweep stopped early; [None] exactly when the frontier
          drained and the result is [Complete] *)
}
(** The outcome set together with the sweep's telemetry. *)

(** {1 Resilience configuration} *)

val checkpoint_every_default : int
(** Default periodic-checkpoint interval, in state expansions ([1000]). *)

type rcfg = {
  budget : Budget.t option;
      (** wall-clock deadline and memory budget, checked at safe points *)
  checkpoint_every : int;
      (** expansions between periodic snapshots (sequential engine only;
          the parallel engine snapshots at budget stops).  Periodic
          snapshots self-throttle: one is skipped while taking it would
          spend more than ~5% of the wall-clock since the last (snapshot
          cost grows with the visited set), so the overhead stays bounded
          on big sweeps; stop/final snapshots are never skipped *)
  snapshot_sink : (string -> unit) option;
      (** receives framed snapshot bytes (see {!Snapshot}): periodically
          every [checkpoint_every] expansions, and once at any early stop
          — the caller decides where they live (a file, an enclosing
          checkpoint).  A snapshot of a spilling run names run files in
          the spill directory, so only a run with an explicit
          [spill_dir] leaves a resumable one *)
  resume : string option;
      (** framed snapshot bytes to restore before exploring; validated
          (CRC, version, machine, program) — never silently trusted *)
  sym : bool;
      (** prune modulo the program's automorphism group ({!Sym}): the
          transposition table is probed with the least key of each
          state's orbit and recorded outcomes are closed under the
          group.  A [Complete] outcome set is identical either way; on
          symmetric programs [states_expanded] drops by up to the group
          order.  Activating symmetry (a nontrivial group) disables
          sleep-set pruning — orbit-merged visits cannot answer the
          revisit protocol — while ample-set reduction stays on. *)
  spill_dir : string option;
      (** directory for a tiered exact visited store ({!Spill_store}):
          when the visited set crosses the memory budget the sweep
          flushes its hot tier into immutable runs there, so the result
          stays [Complete].  Without it, a budget with a memory
          component gets a store in a private temporary directory that
          is deleted when the sweep ends.  The store is active from the
          first claim or not at all; it disables sleep sets like
          [sym]. *)
  obs : Obs.t;
      (** receives ["explore"]-category instants for checkpoint, resume
          and spill events *)
  on_event : string -> unit;
      (** loud human-readable notices (spills, recovery); the CLI routes
          this to stderr *)
  cancel : (unit -> bool) option;
      (** the per-job stop hook: polled at the same safe points as the
          budget (both engines).  Returning [true] stops the sweep with
          {!Cancelled} — the in-flight state stays in the frontier and
          the final snapshot is a complete resume point, exactly like a
          budget stop.  The batch service routes its drain signal
          (SIGTERM/SIGINT forwarded to a worker) through this. *)
}
(** Everything the resilience layer needs, bundled so engines can thread
    it without widening every signature.  {!rcfg_default} disables it
    all. *)

val rcfg_default : rcfg

exception Resume_rejected of string
(** A resume snapshot failed validation: corrupted (CRC), version-skewed,
    wrong machine, wrong program, taken under the opposite reduction or
    symmetry setting, a reduced sequential snapshot (carrying sleep-set
    state) offered to a parallel run or a spilling run, or a spill-store
    snapshot resumed without its [spill_dir] (or with a corrupted
    store). *)

val por_min_instrs_default : int
(** Programs with fewer instructions than this skip the reduction
    machinery entirely (the cheap guard): their state spaces are small
    enough that oracle tests cost more than the states they would save. *)

val spill_threshold_default : int
(** A multi-domain request first probes sequentially and only fans out
    to domains once this many states have been expanded — spawning
    domains for a sub-millisecond sweep costs more than the sweep.
    (Unrelated to the spill {e store}; see {!spill_flush_default}.) *)

val spill_flush_default : int
(** Hot-tier key cap of the spill store: the RAM tier flushes to an
    immutable on-disk run at this size even before the memory budget is
    crossed. *)

module Make (M : Machine_sig.MACHINE) : sig
  val run :
    ?domains:int ->
    ?adaptive:bool ->
    ?reduce:bool ->
    ?por_min_instrs:int ->
    ?fuel:int ->
    ?rcfg:rcfg ->
    Prog.t ->
    run_result
  (** [run ~domains:n ~fuel p] explores [p]'s state graph.  [n = 1]
      (default) is a sequential DFS; [n > 1] spawns extra domains over a
      sharded claim table.  [fuel] bounds the number of distinct states
      expanded — across resume, so a resumed run continues the original
      budget; without it exploration is exhaustive.  A [Complete] result
      carries the same outcome set for every [domains]; a [Partial]
      result is always a sound subset of the complete set.

      [reduce] (default [true]) enables partial-order reduction when the
      machine declares an oracle and the program has at least
      [por_min_instrs] instructions (default
      {!por_min_instrs_default}): the sequential engine runs ample-set
      selection plus sleep-set pruning, the parallel engine ample-set
      selection only, so reduced sequential runs expand at most as many
      states as reduced parallel runs.  The outcome set of a [Complete]
      run is unchanged by [reduce]; only [states_expanded] varies.

      [adaptive] (default [true]) makes a multi-domain request safe on
      small problems: domains are capped at
      [Domain.recommended_domain_count ()], and the sweep starts on the
      sequential engine, fanning out only after
      {!spill_threshold_default} states ([stats.domains_used] reports
      what actually ran).  Pass [~adaptive:false] to force the parallel
      engine at exactly [domains].

      With [rcfg]: the budget is checked between expansions.  At the
      deadline the sweep drains cleanly to [Partial] (with a final
      snapshot handed to the sink) instead of being killed mid-sweep;
      at the memory budget both engines flush the spill store's hot tier
      to disk and keep going, exactly.  Snapshots record the reduction
      setting and any sleep-set state; a resume must use the same
      [reduce] setting, and snapshots from reduced sequential runs can
      only resume on the sequential engine.
      @raise Invalid_argument on [domains < 1], negative [fuel], or a
        non-positive [checkpoint_every]
      @raise Resume_rejected if [rcfg.resume] fails validation *)

  val snapshot_frontier_length : string -> int
  (** Frontier length recorded in framed snapshot bytes — introspection
      for tests and tooling.
      @raise Resume_rejected on invalid bytes. *)

  val outcomes : ?domains:int -> ?reduce:bool -> Prog.t -> Final.Set.t
  (** The complete outcome set ({!run} without fuel, result unwrapped). *)

  val outcomes_bounded : fuel:int -> Prog.t -> Final.Set.t bounded
  (** Explore at most [fuel] distinct states; always terminates and never
      raises on well-formed programs.  Returns [Complete s] when the state
      graph fit in the budget (then [s] equals {!outcomes}), [Partial s]
      otherwise, with [s] a subset of the complete set.
      @raise Invalid_argument on negative [fuel]. *)

  val allows : Prog.t -> Cond.t -> bool
  (** Some complete outcome satisfies the condition. *)

  val allows_exists : Prog.t -> bool option
  (** {!allows} against the program's [exists] clause, when it has one. *)
end
