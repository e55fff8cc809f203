#!/usr/bin/env bash
# The GCC 12 AVX-512 spellings check (DESIGN §11). GCC 12.2 draws a false
# -Wuninitialized from these intrinsics depending on where they are
# inlined, which breaks the -DDODUO_WERROR=ON build on correct kernel code.
# nn/simd.h spells each of them once with a defined passthrough; every
# other file under src/doduo/nn must call the trait instead. Fails, naming
# the lines, when one does not.
#
#   tools/check_simd_spellings.sh [checkout]   # default: this checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
banned='_mm512_andnot_si512|_mm512_max_ps|_mm512_reduce_max_ps'
banned+='|_mm512_extractf64x4_pd|_mm512_castps512_ps256'
if hits="$(grep -rnwE "${banned}" "${root}/src/doduo/nn" \
  --exclude=simd.h)"; then
  echo "${hits}"
  echo "FAIL: GCC 12 draws false -Wuninitialized from these AVX-512" \
    "intrinsics; call nn/simd.h's trait instead (DESIGN §11)"
  exit 1
fi
echo "no GCC 12 AVX-512 spellings outside nn/simd.h"
