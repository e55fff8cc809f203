#!/usr/bin/env bash
# Full pre-merge check: tier-1 tests (Release) plus the thread-safety
# analysis build and the AddressSanitizer and ThreadSanitizer configurations.
#
#   tools/check.sh            # lint + tier-1 + -Werror + thread-safety
#                             #   + ASan + TSan + UBSan
#   tools/check.sh --fast     # lint + tier-1 only
#
# The thread-safety stage compiles the tree with Clang's -Wthread-safety as
# errors (DESIGN §13): every DODUO_GUARDED_BY field access and
# REQUIRES/ACQUIRE/RELEASE contract is checked statically. It needs clang++
# and is skipped with a notice when none is on PATH (the annotations are
# no-ops elsewhere, so nothing regresses silently between environments with
# and without Clang — CI always has one).
#
# ASan covers the strided-view kernels and workspace arena reuse (out-of-
# bounds writes through MutMatView would corrupt neighbouring column bands
# silently), the layers' borrowed forward inputs in nn, transformer, core
# and baselines (an input that dies before Backward would otherwise give
# wrong gradients silently), plus serve (protocol frame decoding touches
# raw byte buffers);
# TSan covers the thread-pool sharded kernels. UBSan covers the
# parsing/validation paths (env parsing, CSV, checkpoint decoding, tokenizer
# bounds) where integer overflow or bad shifts would otherwise pass
# silently. The ASan/TSan runs restrict themselves to the suites where the
# kernel, layer, threading, and serving code lives: nn, transformer, and
# serve under both, core, baselines and table under ASan (the dynamic
# batcher and server are the most concurrency-dense code in the tree —
# DESIGN §12 requires the loopback stress suite to be clean under both).
# UBSan runs the tier-1 suite; the Release tier-1 runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
sanitizer_filter='nn_test|transformer_test|serve_test'

echo "=== doduo_lint (project invariants, whole-program) ==="
# The linter is cheap and catches stray abort/rand calls, raw std::mutex
# use, detached threads, and include hygiene before any compile finishes,
# so it runs first and is never skipped — not even under --fast
# (DESIGN §11). Every run includes the cross-file passes (DESIGN §16):
# layering DAG, include cycles, serve-frame symmetry, metrics registry,
# and the hot-path allocation audit. A discarded Status is the compiler's
# job (-Werror=unused-result in every build). The JSON report (SARIF-lite)
# lands in build/lint_report.json for CI annotation; the human-readable
# run gates.
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target doduo_lint
./build/tools/doduo_lint --format=json . > build/lint_report.json \
  || true  # keep the report even when dirty; the gating run is next
./build/tools/doduo_lint .

echo "=== tier-1 (Release) ==="
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

if [[ "${1:-}" == "--fast" ]]; then
  echo "=== skipped quant gate + -Werror + thread-safety + sanitizer configs (--fast) ==="
  exit 0
fi

echo "=== quantized path (int8 GEMM + v2 checkpoints, DESIGN §14) ==="
# Focused re-run of the quantization contracts — kernel bit-equality across
# ISAs, the v2 loader fuzz suites, replica weight sharing, the lint rule,
# and the Table 3/4 F1 parity locks — then the throughput gates: int8 GEMM
# must beat the fp32 path users run (dispatched SIMD MatMul) by >= 1.25x at
# 256³, the SIMD GELU epilogue must beat the scalar tanh port by >= 3x, the
# attention kernel must beat the scalar head by >= 2x, on AVX-512F hosts
# the fp32 GEMM tile must beat the AVX axpy by >= 1.3x over the four
# Linear shapes and the AVX-512 GELU and attention twins must beat their
# AVX2 twins by >= 1.3x and >= 1.1x, and on AMX hosts the int8 AMX kernel
# must beat the AVX2 one by >= 2x over the four Linear shapes at 76 rows.
# Each side of each ratio is the best of 5 interleaved repetitions.
# (The v2 fuzz suites also run under ASan below via nn_alloc_test and
# under UBSan in the tier-1 run.)
ctest --test-dir build --output-on-failure -j "${jobs}" \
  -R 'Quant|SerializeV2|ReplicaSharing|KeptRows'
cmake --build build -j "${jobs}" --target bench_kernels
DODUO_BENCH_QUANT=1 DODUO_BENCH_QUANT_JSON=build/BENCH_quant.json \
  ./build/bench/bench_kernels --benchmark_filter='BM_Int8Gemm/64/1$' \
  2> build/quant_bench.log >/dev/null || { cat build/quant_bench.log; exit 1; }
speedup="$(awk -F'= ' '/int8\/fp32-simd speedup/ {print $2}' \
  build/quant_bench.log)"
awk -v s="${speedup:-0}" 'BEGIN { exit (s + 0 >= 1.25) ? 0 : 1 }' || {
  echo "FAIL: int8 GEMM speedup ${speedup:-unknown}x < 1.25x over SIMD fp32"
  exit 1
}
echo "int8 GEMM speedup ${speedup}x over SIMD fp32 (gate: >= 1.25x);" \
  "scorecard in build/BENCH_quant.json"
# Same run, second ratio: the SIMD GELU epilogue (AVX2 tanh twin) against
# the scalar fdlibm tanh port at the FFN shapes, gate >= 3x (DESIGN §9).
gelu="$(awk -F'= ' '/gelu simd\/scalar speedup/ {print $2}' \
  build/quant_bench.log)"
awk -v s="${gelu:-0}" 'BEGIN { exit (s + 0 >= 3) ? 0 : 1 }' || {
  echo "FAIL: GELU SIMD speedup ${gelu:-unknown}x < 3x over the scalar port"
  exit 1
}
echo "GELU SIMD speedup ${gelu}x over the scalar tanh port (gate: >= 3x)"
# Same run, third ratio: the attention core (4 heads, hd 16, seq 76 and
# 190) dispatched against the scalar head; the smaller ratio must be >= 2x.
attn="$(awk -F'= ' '/attn simd\/scalar speedup/ {print $2}' \
  build/quant_bench.log)"
awk -v s="${attn:-0}" 'BEGIN { exit (s + 0 >= 2) ? 0 : 1 }' || {
  echo "FAIL: attention SIMD speedup ${attn:-unknown}x < 2x over the scalar head"
  exit 1
}
echo "attention SIMD speedup ${attn}x over the scalar head (gate: >= 2x)"
# Same run, fourth ratio: the AVX-512 GEMM tile against the AVX axpy over
# the four Linear shapes at rows 76 and 190, gate >= 1.3x; hosts without
# AVX-512F have no tile and print the skip reason instead.
if grep -q 'gemm tile/avx skipped' build/quant_bench.log; then
  echo "GEMM tile gate skipped: $(sed -n 's/.*gemm tile\/avx skipped: //p' \
    build/quant_bench.log)"
else
  tile="$(awk -F'= ' '/gemm tile\/avx speedup/ {print $2}' \
    build/quant_bench.log)"
  awk -v s="${tile:-0}" 'BEGIN { exit (s + 0 >= 1.3) ? 0 : 1 }' || {
    echo "FAIL: GEMM tile speedup ${tile:-unknown}x < 1.3x over the AVX axpy"
    exit 1
  }
  echo "GEMM tile speedup ${tile}x over the AVX axpy (gate: >= 1.3x)"
fi
# Same run, fifth and sixth ratios: the AVX-512 twins of the GELU epilogue
# and of the attention core against the AVX2 twins they sit beside, gates
# >= 1.3x and >= 1.1x (the attention ratio is the smaller of seq 76 and
# 190); hosts without AVX-512F print the skip reason instead.
if grep -q '512/avx2 twins skipped' build/quant_bench.log; then
  echo "AVX-512 twin gates skipped: $(sed -n \
    's/.*512\/avx2 twins skipped: //p' build/quant_bench.log)"
else
  gelu512="$(awk -F'= ' '/gelu 512\/avx2 speedup/ {print $2}' \
    build/quant_bench.log)"
  awk -v s="${gelu512:-0}" 'BEGIN { exit (s + 0 >= 1.3) ? 0 : 1 }' || {
    echo "FAIL: GELU AVX-512 speedup ${gelu512:-unknown}x < 1.3x over AVX2"
    exit 1
  }
  echo "GELU AVX-512 speedup ${gelu512}x over the AVX2 twin (gate: >= 1.3x)"
  attn512="$(awk -F'= ' '/attn 512\/avx2 speedup/ {print $2}' \
    build/quant_bench.log)"
  awk -v s="${attn512:-0}" 'BEGIN { exit (s + 0 >= 1.1) ? 0 : 1 }' || {
    echo "FAIL: attention AVX-512 speedup ${attn512:-unknown}x < 1.1x over AVX2"
    exit 1
  }
  echo "attention AVX-512 speedup ${attn512}x over the AVX2 twin (gate: >= 1.1x)"
fi
# Same run, seventh ratio: the int8 AMX kernel against the AVX2 one over
# the four Linear shapes at 76 rows, gate >= 2x; hosts without AMX (or
# whose kernel refused the tile state) print the skip reason instead.
if grep -q 'int8 amx/avx2 skipped' build/quant_bench.log; then
  echo "int8 AMX gate skipped: $(sed -n \
    's/.*int8 amx\/avx2 skipped: //p' build/quant_bench.log)"
else
  amx="$(awk -F'= ' '/int8 amx\/avx2 speedup/ {print $2}' \
    build/quant_bench.log)"
  awk -v s="${amx:-0}" 'BEGIN { exit (s + 0 >= 2) ? 0 : 1 }' || {
    echo "FAIL: int8 AMX speedup ${amx:-unknown}x < 2x over the AVX2 kernel"
    exit 1
  }
  echo "int8 AMX speedup ${amx}x over the AVX2 kernel (gate: >= 2x)"
fi

echo "=== warning wall (-Werror, Release) ==="
cmake -B build-werror -S . -DDODUO_WERROR=ON >/dev/null
cmake --build build-werror -j "${jobs}"

echo "=== thread-safety analysis (Clang -Wthread-safety) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-ts -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DDODUO_THREAD_SAFETY=ON >/dev/null
  cmake --build build-ts -j "${jobs}"
else
  echo "no clang++ on PATH; skipping (annotations are no-ops under GCC)"
fi

echo "=== AddressSanitizer ==="
cmake -B build-asan -S . -DDODUO_ASAN=ON >/dev/null
cmake --build build-asan -j "${jobs}" --target nn_test transformer_test \
  core_test baselines_test serve_test table_test nn_alloc_test \
  encoder_alloc_test sanitizer_alloc_test
(cd build-asan/tests &&
 ./nn_test --gtest_brief=1 &&
 ./nn_alloc_test --gtest_brief=1 &&
 ./encoder_alloc_test --gtest_brief=1 &&
 ./table_test --gtest_brief=1 &&
 ./sanitizer_alloc_test --gtest_brief=1 &&
 ./transformer_test --gtest_brief=1 &&
 ./core_test --gtest_brief=1 &&
 ./baselines_test --gtest_brief=1 &&
 ./serve_test --gtest_brief=1)

echo "=== ThreadSanitizer ==="
cmake -B build-tsan -S . -DDODUO_TSAN=ON >/dev/null
cmake --build build-tsan -j "${jobs}" --target nn_test transformer_test \
  serve_test core_test
(cd build-tsan/tests &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./nn_test --gtest_brief=1 &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./transformer_test \
   --gtest_brief=1 &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./serve_test \
   --gtest_brief=1 &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./core_test \
   --gtest_brief=1 \
   --gtest_filter='ReplicaReuseTest.*:DeterminismTest.*:*KeptRowsModelTest.*')

echo "=== UndefinedBehaviorSanitizer ==="
cmake -B build-ubsan -S . -DDODUO_UBSAN=ON >/dev/null
cmake --build build-ubsan -j "${jobs}"
echo "--- dirty-input suite (DESIGN §15: raw fixture bytes + sanitizer + robust path) ---"
# Focused gate before the full run: the malformed-CSV fixture corpus, the
# column sanitizer heuristics, confidence calibration, and the robust
# annotation path — the code that chews untrusted bytes — must be clean
# under UBSan on their own, so a regression here is named, not buried in
# the tier-1 wall of output.
ctest --test-dir build-ubsan --output-on-failure -j "${jobs}" \
  -R 'DirtyFixtures|ColumnSanitizer|SanitizerDiff|SanitizerAlloc|SerializerOverlay|NullMarker|SkipReason|CalibratedConfidence|FitTemperature|AnnotatorRobust|AnnotatorOverlay'
ctest --test-dir build-ubsan --output-on-failure -j "${jobs}"

echo "=== all checks passed (lint + quant gate + -Werror + thread-safety; ${sanitizer_filter} under ASan/TSan, core_test|baselines_test|table_test|sanitizer_alloc_test under ASan; tier-1 under UBSan) ==="
