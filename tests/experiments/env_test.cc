// Integration tests of the experiments harness: environment construction,
// configuration plumbing, pre-trained checkpoint caching, and the scale
// helper. Kept at miniature sizes so the suite stays fast.

#include "doduo/experiments/env.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "doduo/experiments/runners.h"
#include "gtest/gtest.h"

namespace doduo::experiments {
namespace {

EnvOptions TinyOptions(BenchmarkMode mode) {
  EnvOptions options;
  options.mode = mode;
  options.num_tables = 40;
  options.vocab_size = 700;
  options.hidden_dim = 16;
  options.num_layers = 1;
  options.num_heads = 2;
  options.ffn_dim = 32;
  options.max_positions = 96;
  options.pretrain_epochs = 1;
  options.corpus_fact_mentions = 1;
  options.corpus_type_mentions = 1;
  options.corpus_list_mentions = 2;
  options.use_cache = false;
  options.seed = 7;
  return options;
}

TEST(EnvTest, WikiTableEnvironmentIsConsistent) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  EXPECT_EQ(env.dataset().tables.size(), 40u);
  EXPECT_TRUE(env.dataset().multi_label);
  EXPECT_GT(env.dataset().relation_vocab.size(), 0);
  EXPECT_GT(env.vocab().size(), text::Vocab::kNumSpecialTokens);

  const auto config = env.MakeDoduoConfig();
  EXPECT_EQ(config.encoder.vocab_size, env.vocab().size());
  EXPECT_EQ(config.num_types, env.dataset().type_vocab.size());
  EXPECT_EQ(config.tasks, core::TaskSet::kTypesAndRelations);
  // Splits partition the tables.
  EXPECT_EQ(env.splits().train.size() + env.splits().valid.size() +
                env.splits().test.size(),
            env.dataset().tables.size());
}

TEST(EnvTest, VizNetEnvironmentDisablesRelations) {
  Env env(TinyOptions(BenchmarkMode::kVizNet));
  EXPECT_FALSE(env.dataset().multi_label);
  const auto config = env.MakeDoduoConfig();
  EXPECT_EQ(config.tasks, core::TaskSet::kTypesOnly);
  EXPECT_EQ(config.num_relations, 0);
  // Mode-specific serializer budget (see EXPERIMENTS.md).
  EXPECT_EQ(config.serializer.max_tokens_per_column, 8);
}

TEST(EnvTest, PretrainedInitializationCopiesWeights) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  auto config = env.MakeDoduoConfig();
  util::Rng rng(1);
  core::DoduoModel model(config, &rng);
  const auto before = model.SnapshotWeights();
  env.InitializeFromPretrained(&model);
  const auto after = model.SnapshotWeights();
  // Encoder weights changed; shapes identical.
  double diff = 0.0;
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(nn::SameShape(before[i], after[i]));
    for (int64_t j = 0; j < before[i].size(); ++j) {
      diff += static_cast<double>(
          std::abs(before[i].data()[j] - after[i].data()[j]));
    }
  }
  EXPECT_GT(diff, 1e-3);
}

TEST(EnvTest, CheckpointCacheRoundTrips) {
  const std::string cache_dir = ::testing::TempDir() + "/doduo_env_cache";
  std::filesystem::remove_all(cache_dir);
  setenv("DODUO_CACHE_DIR", cache_dir.c_str(), 1);

  EnvOptions options = TinyOptions(BenchmarkMode::kWikiTable);
  options.use_cache = true;
  nn::Tensor first_weights;
  {
    Env env(options);
    env.PretrainedLm();  // trains and writes the cache
    EXPECT_FALSE(std::filesystem::is_empty(cache_dir));
    auto config = env.MakeDoduoConfig();
    util::Rng rng(2);
    core::DoduoModel model(config, &rng);
    env.InitializeFromPretrained(&model);
    first_weights = model.SnapshotWeights()[0];
  }
  {
    Env env(options);  // second environment loads from the cache
    auto config = env.MakeDoduoConfig();
    util::Rng rng(3);
    core::DoduoModel model(config, &rng);
    env.InitializeFromPretrained(&model);
    const nn::Tensor second_weights = model.SnapshotWeights()[0];
    ASSERT_TRUE(nn::SameShape(first_weights, second_weights));
    for (int64_t i = 0; i < first_weights.size(); ++i) {
      ASSERT_FLOAT_EQ(first_weights.data()[i], second_weights.data()[i]);
    }

    // The cached LM is a read-only mapping of the cache file; a model
    // initialized from it must still fine-tune.
    DoduoVariant variant;
    variant.epochs = 1;
    const DoduoRun run = RunDoduo(&env, variant);
    const nn::ParameterList initial = model.encoder()->Parameters();
    const nn::ParameterList tuned = run.model->encoder()->Parameters();
    ASSERT_EQ(initial.size(), tuned.size());
    double moved = 0.0;
    for (size_t p = 0; p < initial.size(); ++p) {
      const nn::Tensor& a = initial[p]->value;
      const nn::Tensor& b = tuned[p]->value;
      for (int64_t i = 0; i < a.size(); ++i) {
        moved += std::abs(static_cast<double>(a.data()[i]) -
                          static_cast<double>(b.data()[i]));
      }
    }
    EXPECT_GT(moved, 0.0);
  }
  // The cache holds one checkpoint in the current format (version 2).
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    uint32_t magic_and_version[2] = {};
    in.read(reinterpret_cast<char*>(magic_and_version),
            sizeof(magic_and_version));
    EXPECT_EQ(magic_and_version[0], 0x444F4455u) << entry.path();
    EXPECT_EQ(magic_and_version[1], 2u) << entry.path();
  }
  unsetenv("DODUO_CACHE_DIR");
  std::filesystem::remove_all(cache_dir);
}

TEST(EnvTest, RunDoduoSmokeTest) {
  Env env(TinyOptions(BenchmarkMode::kWikiTable));
  DoduoVariant variant;
  variant.epochs = 2;
  const DoduoRun run = RunDoduo(&env, variant);
  EXPECT_GT(run.types.micro.f1, 0.0);
  EXPECT_TRUE(run.has_relations);
  EXPECT_EQ(run.history.valid_type_f1.size(), 2u);
}

TEST(ScaledTest, RespectsScaleEnvVar) {
  unsetenv("DODUO_SCALE");
  EXPECT_EQ(Scaled(100), 100);
  setenv("DODUO_SCALE", "0.25", 1);
  EXPECT_EQ(Scaled(100), 25);
  setenv("DODUO_SCALE", "0.001", 1);
  EXPECT_EQ(Scaled(100), 1);  // floor of 1
  unsetenv("DODUO_SCALE");
}

}  // namespace
}  // namespace doduo::experiments
