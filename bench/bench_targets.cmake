# Experiment binaries: one per table/figure of the paper (see DESIGN.md's
# per-experiment index) plus google-benchmark kernel microbenchmarks. All
# binaries land in build/bench/ and run unattended.

function(doduo_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE doduo benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

doduo_bench(exp_table3_wikitable)
doduo_bench(exp_table4_viznet)
doduo_bench(exp_table5_numeric)
doduo_bench(exp_table6_ablation_wiki)
doduo_bench(exp_table7_ablation_viznet)
doduo_bench(exp_table8_token_budget_wiki)
doduo_bench(exp_table9_case_study)
doduo_bench(exp_table11_token_budget_viznet)
doduo_bench(exp_table12_probing)
doduo_bench(exp_fig4_learning_efficiency)
doduo_bench(exp_fig5_per_class)
doduo_bench(exp_fig6_attention)
doduo_bench(exp_ablation_attention)
doduo_bench(bench_kernels)
# allocs_per_iter counts every call of the global operator new, which
# tests/testing/counting_new.cc replaces for the whole binary.
target_sources(bench_kernels PRIVATE
               ${CMAKE_SOURCE_DIR}/tests/testing/counting_new.cc)
target_include_directories(bench_kernels PRIVATE ${CMAKE_SOURCE_DIR}/tests)
