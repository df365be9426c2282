(* The service suite runs first: it forks supervisors' workers in
   process, and OCaml 5 refuses [Unix.fork] for the rest of the process
   once any domain has been spawned (the explore suite's parallel runs
   spawn some). *)
let () =
  Alcotest.run "weakord"
    [
      Test_service.suite;
      Test_relation.suite;
      Test_program.suite;
      Test_litmus.suite;
      Test_litmus.file_suite;
      Test_litmus.robustness_suite;
      Test_exec.suite;
      Test_drf.suite;
      Test_axiomatic.suite;
      Test_machine.suite;
      Test_explore.suite;
      Test_engine.suite;
      Test_sim.suite;
      Test_obs.suite;
      Test_fault.suite;
      Test_fault.fuel_suite;
      Test_differential.suite;
      Test_delay.suite;
      Test_core.suite;
      Test_resilience.suite;
      Test_sym.suite;
    ]
