#ifndef DODUO_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define DODUO_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "doduo/core/annotator.h"
#include "doduo/core/model.h"
#include "doduo/core/replica_pool.h"
#include "doduo/table/serializer.h"
#include "doduo/table/table.h"
#include "doduo/text/vocab.h"
#include "doduo/text/wordpiece_tokenizer.h"
#include "doduo/util/rng.h"

namespace doduo::serve::testing {

/// A tiny trained-shape model (1 layer, hidden 16) with everything the
/// serve stack needs, mirroring the annotator_error_test fixture. Small
/// enough that a 500-request stress run stays fast under TSan.
struct TestModel {
  TestModel() {
    config.encoder.vocab_size = 60;
    config.encoder.max_positions = 64;
    config.encoder.hidden_dim = 16;
    config.encoder.num_heads = 2;
    config.encoder.ffn_dim = 32;
    config.encoder.num_layers = 1;
    config.encoder.dropout = 0.0f;
    config.serializer.max_total_tokens = 64;
    config.num_types = 5;
    config.num_relations = 0;
    config.tasks = core::TaskSet::kTypesOnly;
    for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
      vocab.AddToken(word);
    }
    for (int i = 0; i < config.num_types; ++i) {
      type_vocab.AddLabel("type" + std::to_string(i));
    }
    util::Rng rng(1);
    model = std::make_unique<core::DoduoModel>(config, &rng);
    model->set_training(false);
    tokenizer = std::make_unique<text::WordPieceTokenizer>(&vocab);
    serializer = std::make_unique<table::TableSerializer>(
        tokenizer.get(), config.serializer);
  }

  core::Annotator MakeAnnotator() {
    return core::Annotator(model.get(), serializer.get(), &type_vocab,
                           nullptr);
  }

  std::unique_ptr<core::ReplicaPool> MakePool(int num_replicas) {
    return std::make_unique<core::ReplicaPool>(
        model.get(), serializer.get(), &type_vocab, nullptr, num_replicas);
  }

  core::DoduoConfig config;
  text::Vocab vocab;
  table::LabelVocab type_vocab;
  std::unique_ptr<core::DoduoModel> model;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<table::TableSerializer> serializer;
};

/// One of four distinct well-formed tables; `variant` also salts the id.
inline table::Table MakeTable(int variant) {
  const char* words[] = {"alpha", "beta", "gamma", "delta"};
  table::Table table("table-" + std::to_string(variant));
  const int v = variant & 3;
  table.AddColumn({"a", {words[v], words[(v + 1) & 3]}});
  table.AddColumn({"b", {words[(v + 2) & 3]}});
  table.AddColumn({"c", {words[(v + 3) & 3], words[v]}});
  return table;
}

/// A zero-column table: annotation answers it with zero outcomes.
inline table::Table MakeEmptyTable() { return table::Table("empty"); }

/// Field-by-field equality, confidence compared exactly: the served path
/// must be bit-identical to a sequential Annotator on the same table.
inline bool SameOutcomes(const std::vector<core::ColumnOutcome>& a,
                         const std::vector<core::ColumnOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].labels != b[c].labels || a[c].confidence != b[c].confidence ||
        a[c].skipped_reason != b[c].skipped_reason ||
        a[c].abstained != b[c].abstained) {
      return false;
    }
  }
  return true;
}

}  // namespace doduo::serve::testing

#endif  // DODUO_TESTS_SERVE_SERVE_TEST_UTIL_H_
