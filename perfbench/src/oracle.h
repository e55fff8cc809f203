#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

// The output oracle. The reference for every timed outcome is a
// single-thread local AnnotateTypesRobust pass on the same checkpoint and
// quant setting: labels and skip reasons must match byte for byte,
// confidences bit for bit.

#include <cstddef>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"

namespace perfbench {

using Outcomes = std::vector<doduo::core::ColumnOutcome>;

/// Number of columns whose outcome differs from the reference (a column
/// count mismatch counts every column of the longer side).
size_t CountMismatches(const Outcomes& got, const Outcomes& want);

/// True when the oracle notices a one-bit change to a confidence and a
/// one-byte change to a label of `reference`; run on every timed run so
/// a broken comparison can never pass silently.
bool OracleSelfCheck(const std::vector<Outcomes>& reference);

/// Micro-F1 tallies of predicted label sets against true label sets.
/// Skipped and abstained columns predict nothing, so their labels count as
/// misses.
struct F1Tally {
  size_t tp = 0;
  size_t fp = 0;
  size_t fn = 0;

  void Add(const Outcomes& outcomes,
           const std::vector<std::vector<std::string>>& labels);
  double F1() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
