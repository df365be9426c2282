(* Quickstart: write a litmus test, ask three questions about it.

     dune exec examples/quickstart.exe

   1. Does sequential consistency allow the outcome I'm worried about?
   2. Does my program obey DRF0 (Definition 3)?
   3. What does weakly ordered hardware do with it (Definition 2)? *)

let test =
  {|
name my_first_test
{ x=0; f=0 }
P0          | P1          ;
W x 1       | Await f 1   ;
Ws f 1      | r := R x    ;
exists (1:r=0)
|}

let () =
  let prog = Litmus_parse.parse_string test in
  Fmt.pr "Program:@.%a@.@." Prog.pp prog;

  (* 1. Sequential consistency: enumerate every interleaving. *)
  let sc_outcomes = Sc.outcomes prog in
  Fmt.pr "SC outcomes (%d):@.%a@.@." (Final.Set.cardinal sc_outcomes)
    Final.pp_set sc_outcomes;
  (match Machines.allows_exists Machines.sc prog with
  | Some true -> Fmt.pr "SC allows the 'exists' outcome.@."
  | Some false -> Fmt.pr "SC forbids the 'exists' outcome.@."
  | None -> Fmt.pr "No 'exists' clause.@.");

  (* 2. DRF0: is there enough synchronization? *)
  (match Drf.check prog with
  | Ok () -> Fmt.pr "The program obeys DRF0: no data races.@."
  | Error races ->
      Fmt.pr "Data races found:@.%a@."
        Fmt.(list ~sep:cut Drf.pp_race)
        races);

  (* 3. Weakly ordered hardware must therefore keep it SC (Definition 2). *)
  Fmt.pr "@.Machine verdicts for the 'exists' outcome:@.";
  List.iter
    (fun m ->
      match Machines.allows_exists m prog with
      | Some allowed ->
          Fmt.pr "  %-8s %s@." (Machines.name m)
            (if allowed then "ALLOWS (weaker than SC here)" else "forbids")
      | None -> ())
    Machines.all;

  (* The paper's punchline, mechanically: because the program is DRF0, the
     def1/def2 machines appear sequentially consistent to it. *)
  Fmt.pr "@.appears-SC: def1=%b def2=%b@."
    (Machines.appears_sc Machines.def1 prog)
    (Machines.appears_sc Machines.def2 prog)
