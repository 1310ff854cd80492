(* Test runner: one alcotest binary aggregating every suite.
   Run with `dune runtest`; slow (model-checking / exhaustive) cases are
   tagged `Slow and can be skipped with ALCOTEST_QUICK_TESTS=1. *)

let () =
  Alcotest.run "mutexlb"
    [
      ("xmath", Test_xmath.suite);
      ("rng", Test_rng.suite);
      ("pool", Test_pool.suite);
      ("interner", Test_interner.suite);
      ("stats+vec+table", Test_stats_vec.suite);
      ("bitio", Test_bitio.suite);
      ("shmem", Test_shmem.suite);
      ("changed", Test_changed.suite);
      ("cost", Test_cost.suite);
      ("mutex", Test_mutex.suite);
      ("algorithms", Test_algorithms.suite);
      ("permutation", Test_permutation.suite);
      ("poset", Test_poset.suite);
      ("metastep", Test_metastep.suite);
      ("construct", Test_construct.suite);
      ("linearize", Test_linearize.suite);
      ("lemmas", Test_lemmas.suite);
      ("encode+decode", Test_encode_decode.suite);
      ("pipeline", Test_pipeline.suite);
      ("visibility", Test_visibility.suite);
      ("trace_io", Test_trace_io.suite);
      ("workload+adversary", Test_workload_adversary.suite);
      ("fairness", Test_fairness.suite);
      ("experiments", Test_experiments.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("distrib", Test_distrib.suite);
      ("faults", Test_faults.suite);
      ("lint", Test_lint.suite);
      ("mutate", Test_mutate.suite);
      ("cli", Test_cli.suite);
      ("properties", Test_properties.suite);
    ]
