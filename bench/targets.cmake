# Evaluation benches: one binary per paper table/figure (see DESIGN.md §3).
# Declared from the top-level CMakeLists so ${CMAKE_BINARY_DIR}/bench holds
# only runnable binaries.

set(GIST_BENCH_OUTPUT_DIR ${CMAKE_BINARY_DIR}/bench)

function(gist_add_bench name)
  add_executable(${name} bench/${name}.cc bench/bench_util.cc)
  target_link_libraries(${name} PRIVATE gist_apps gist_replay)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${GIST_BENCH_OUTPUT_DIR})
endfunction()

gist_add_bench(table1_sketches)
gist_add_bench(fig9_accuracy)
gist_add_bench(fig10_breakdown)
gist_add_bench(fig11_overhead)
gist_add_bench(fig12_sigma_tradeoff)
gist_add_bench(fig13_rr_vs_pt)

# micro_benchmarks carries its own main (for --emit-json / --perf-smoke), so
# it links benchmark without benchmark_main and shares the bench_util helpers.
add_executable(micro_benchmarks bench/micro_benchmarks.cc bench/bench_util.cc)
target_link_libraries(micro_benchmarks PRIVATE gist_apps gist_replay
                      benchmark::benchmark)
set_target_properties(micro_benchmarks PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${GIST_BENCH_OUTPUT_DIR})
gist_add_bench(ablations)

# corpus_sweep scores synthesized corpora, so it needs gist_corpus on top of
# the shared bench link set.
gist_add_bench(corpus_sweep)
target_link_libraries(corpus_sweep PRIVATE gist_corpus)

# Bench flags follow the CLI's rule: an unknown flag or a missing value is a
# usage error that names the flag, never a silent run of the defaults.
add_test(NAME bench_unknown_flag COMMAND corpus_sweep --count 1 --jbos 4)
set_tests_properties(bench_unknown_flag PROPERTIES LABELS unit
                     PASS_REGULAR_EXPRESSION "error: unknown flag '--jbos'")
add_test(NAME bench_flag_missing_value COMMAND corpus_sweep --count 1 --seed)
set_tests_properties(bench_flag_missing_value PROPERTIES LABELS unit
                     PASS_REGULAR_EXPRESSION "error: --seed needs a value")
