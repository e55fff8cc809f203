#ifndef DODUO_BASELINES_SATO_H_
#define DODUO_BASELINES_SATO_H_

#include <vector>

#include "doduo/baselines/crf.h"
#include "doduo/baselines/lda.h"
#include "doduo/baselines/sherlock.h"

namespace doduo::baselines {

/// The Sato baseline (Zhang et al., VLDB'20): Sherlock's per-column
/// features augmented with an LDA topic vector of the whole table (coarse
/// table context), plus a pairwise CRF over the columns of each table
/// (structured output). Single-label only, matching its use on VizNet.
class SatoModel {
 public:
  struct Options {
    Lda::Options lda;
    SherlockOptions sherlock;
    PairwiseCrf::Options crf;
  };

  SatoModel(int num_types, Options options);

  void Train(const table::ColumnAnnotationDataset& dataset,
             const table::DatasetSplits& splits);

  core::EvalResult EvaluateTypes(
      const table::ColumnAnnotationDataset& dataset,
      const std::vector<size_t>& table_indices);

 private:
  /// All cell tokens of a table (the LDA "document").
  static std::vector<std::string> TableDocument(const table::Table& table);

  /// Per-column unary log-scores of one table [n, num_types].
  nn::Tensor Unaries(const table::Table& table,
                     const std::vector<float>& topic_features);

  int num_types_;
  Options options_;
  Lda lda_;
  SherlockModel sherlock_;
  PairwiseCrf crf_;
  /// Topic features per dataset table index, filled by Train.
  std::vector<std::vector<float>> topic_features_;
};

}  // namespace doduo::baselines

#endif  // DODUO_BASELINES_SATO_H_
