(* One verification job, in-process.  The batch supervisor forks before
   calling this, so a crash, wedge, or OOM here takes down one job's
   process, never the batch. *)

type model = Drf0 | Drf1 | Unconstrained | No_check

let model_of_string = function
  | "drf0" -> Some Drf0
  | "drf1" -> Some Drf1
  | "all" -> Some Unconstrained
  | "none" -> Some No_check
  | _ -> None

let model_name = function
  | Drf0 -> "drf0"
  | Drf1 -> "drf1"
  | Unconstrained -> "all"
  | No_check -> "none"

let obeys model ~sc prog =
  match model with
  | Drf0 -> Drf.obeys ~model:Drf.DRF0 ~sc prog
  | Drf1 -> Drf.obeys ~model:Drf.DRF1 ~sc prog
  | Unconstrained -> true
  | No_check -> false

let run ?cancel ?fuel ?spill_dir ?mem_budget ~model ~machine prog =
  let budget =
    Option.map (fun b -> Budget.create ~mem_bytes:b ()) mem_budget
  in
  let rcfg = { Explore.rcfg_default with Explore.cancel; spill_dir; budget } in
  let r =
    Machines.explore ~domains:1 ?fuel ~rcfg machine prog
  in
  match r.Explore.stop with
  | Some Explore.Cancelled -> Error `Cancelled
  | stop ->
      let outs = Explore.bounded_value r.Explore.result in
      let sc = Sc.outcomes prog in
      let appears_sc = Final.Set.subset outs sc in
      let obeys_model = obeys model ~sc:(Lazy.from_val sc) prog in
      let complete =
        Explore.is_complete r.Explore.result && stop = None
      in
      Ok
        {
          Verdict_cache.v_outcomes =
            Final.Set.fold
              (fun f acc -> Format.asprintf "%a" Final.pp f :: acc)
              outs []
            |> List.rev;
          v_appears_sc = appears_sc;
          v_obeys_model = obeys_model;
          v_allows_exists =
            Option.map
              (fun c -> Cond.satisfiable_in outs c)
              (Prog.exists prog);
          v_violation = obeys_model && not appears_sc;
          v_states = r.Explore.stats.Explore.states_expanded;
          v_complete = complete;
          v_spilled_runs = r.Explore.stats.Explore.spilled_runs;
        }
