(** One verification job, executed in the current process.

    This is the code a forked batch worker runs; it is also callable
    in-process (tests, benchmarks).  A job computes the machine's
    complete outcome set, the SC reference set, and the Definition-2
    check under a synchronization model. *)

type model =
  | Drf0  (** the paper's Definition 2 check under DRF0 *)
  | Drf1  (** the Section-6 refinement: the check under DRF1 *)
  | Unconstrained  (** no obligation filter: the check is "appears SC" *)
  | No_check  (** record outcome sets only, no verdict *)

val model_of_string : string -> model option
(** ["drf0"], ["drf1"], ["all"] (unconstrained: the check is "appears
    SC"), or ["none"] (no check — record outcomes only). *)

val model_name : model -> string
(** Inverse of {!model_of_string}; the [model] field of cache keys and
    JSONL records. *)

val run :
  ?cancel:(unit -> bool) ->
  ?fuel:int ->
  ?spill_dir:string ->
  ?mem_budget:int ->
  model:model ->
  machine:Machines.t ->
  Prog.t ->
  (Verdict_cache.verdict, [ `Cancelled ]) result
(** Explore the program on the machine (sequentially — crash isolation
    comes from the process boundary, not domains), compare against the
    SC reference, and evaluate the model check.  [cancel] is threaded
    into the exploration as the per-job stop hook; [Error `Cancelled]
    means the hook fired and the verdict is unfinished.  With [fuel] the
    sweep may come back [Partial]: the verdict then has
    [v_complete = false] and a positive violation is still real, but a
    clean result is only "no violation found within fuel".

    [mem_budget] bounds the visited set: when crossed the sweep spills
    to disk and stays complete ([v_spilled_runs] counts the runs), into
    [spill_dir] (a directory private to this job) or, without it, a
    private temporary directory deleted when the sweep ends. *)
