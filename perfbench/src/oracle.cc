#include "src/oracle.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace perfbench {

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameOutcome(const doduo::core::ColumnOutcome& a,
                 const doduo::core::ColumnOutcome& b) {
  return a.labels == b.labels && a.skipped_reason == b.skipped_reason &&
         a.abstained == b.abstained && SameBits(a.confidence, b.confidence);
}

}  // namespace

size_t CountMismatches(const Outcomes& got, const Outcomes& want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  size_t mismatches = 0;
  for (size_t c = 0; c < got.size(); ++c) {
    if (!SameOutcome(got[c], want[c])) ++mismatches;
  }
  return mismatches;
}

bool OracleSelfCheck(const std::vector<Outcomes>& reference) {
  for (const Outcomes& outcomes : reference) {
    for (size_t c = 0; c < outcomes.size(); ++c) {
      if (!outcomes[c].annotated()) continue;
      Outcomes confidence_flip = outcomes;
      uint64_t bits = 0;
      std::memcpy(&bits, &confidence_flip[c].confidence, sizeof(bits));
      bits ^= 1;
      std::memcpy(&confidence_flip[c].confidence, &bits, sizeof(bits));
      Outcomes label_flip = outcomes;
      label_flip[c].labels[0].push_back('x');
      return CountMismatches(outcomes, outcomes) == 0 &&
             CountMismatches(confidence_flip, outcomes) == 1 &&
             CountMismatches(label_flip, outcomes) == 1;
    }
  }
  return false;  // nothing annotated: the oracle could not be exercised
}

void F1Tally::Add(const Outcomes& outcomes,
                  const std::vector<std::vector<std::string>>& labels) {
  for (size_t c = 0; c < labels.size(); ++c) {
    const std::vector<std::string>& truth = labels[c];
    const std::vector<std::string> none;
    const std::vector<std::string>& predicted =
        c < outcomes.size() ? outcomes[c].labels : none;
    for (const std::string& p : predicted) {
      if (std::find(truth.begin(), truth.end(), p) != truth.end()) {
        ++tp;
      } else {
        ++fp;
      }
    }
    for (const std::string& t : truth) {
      if (std::find(predicted.begin(), predicted.end(), t) ==
          predicted.end()) {
        ++fn;
      }
    }
  }
}

double F1Tally::F1() const {
  const double denominator = static_cast<double>(2 * tp + fp + fn);
  return denominator > 0 ? 2.0 * static_cast<double>(tp) / denominator : 0.0;
}

}  // namespace perfbench
