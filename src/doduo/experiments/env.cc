#include "doduo/experiments/env.h"

#include <filesystem>

#include "doduo/nn/serialize.h"
#include "doduo/text/wordpiece_trainer.h"
#include "doduo/util/env.h"
#include "doduo/util/logging.h"
#include "doduo/util/stopwatch.h"

namespace doduo::experiments {

namespace {

uint64_t HashCombine(uint64_t hash, uint64_t value) {
  return hash ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
}

std::string CacheDir() {
  return util::GetEnvString("DODUO_CACHE_DIR", "doduo_cache");
}

}  // namespace

int Scaled(int count) {
  const double scaled = util::ExperimentScale() * count;
  return std::max(1, static_cast<int>(scaled));
}

Env::Env(EnvOptions options)
    : options_(options),
      kb_(options.mode == BenchmarkMode::kWikiTable
              ? synth::KnowledgeBase::BuildWikiTableKb(options.seed)
              : synth::KnowledgeBase::BuildVizNetKb(options.seed)) {
  const bool wikitable = options_.mode == BenchmarkMode::kWikiTable;
  if (options_.pretrain_epochs == 0) {
    options_.pretrain_epochs = wikitable ? 5 : 10;
  }
  if (options_.corpus_list_mentions == 0) {
    options_.corpus_list_mentions = wikitable ? 40 : 120;
  }
  util::Rng rng(options_.seed + 1);

  synth::TableGeneratorOptions generator_options;
  generator_options.num_tables = options_.num_tables;
  generator_options.min_rows = options_.min_rows;
  generator_options.max_rows = options_.max_rows;
  generator_options.single_column_fraction =
      options_.single_column_fraction;
  if (options_.mode == BenchmarkMode::kWikiTable) {
    generator_options.dataset_name = "wikitable";
    generator_options.multi_label = true;
    generator_options.with_relations = true;
  } else {
    generator_options.dataset_name = "viznet";
    generator_options.multi_label = false;
    generator_options.with_relations = false;
    generator_options.distractor_prob = options_.distractor_prob;
  }
  synth::TableGenerator generator(&kb_, generator_options);
  dataset_ = generator.Generate(&rng);
  splits_ = table::SplitDataset(dataset_.tables.size(), 0.60, 0.10, &rng);

  // WordPiece vocabulary from the pre-training corpus (which covers every
  // entity pool, hence every cell value).
  synth::CorpusGenerator corpus_generator(&kb_);
  synth::CorpusOptions corpus_options;
  corpus_options.fact_mentions = options_.corpus_fact_mentions;
  corpus_options.type_mentions = options_.corpus_type_mentions;
  corpus_options.list_mentions = options_.corpus_list_mentions;
  corpus_options.seed = options_.seed + 2;
  const std::vector<std::string> corpus =
      corpus_generator.Generate(corpus_options);
  text::WordPieceTrainer wordpiece_trainer(
      {.vocab_size = options_.vocab_size, .min_pair_frequency = 2});
  vocab_ = wordpiece_trainer.TrainFromLines(corpus);
  tokenizer_ = std::make_unique<text::WordPieceTokenizer>(&vocab_);
}

transformer::TransformerConfig Env::EncoderConfig() const {
  transformer::TransformerConfig config;
  config.vocab_size = vocab_.size();
  config.max_positions = options_.max_positions;
  config.hidden_dim = options_.hidden_dim;
  config.num_layers = options_.num_layers;
  config.num_heads = options_.num_heads;
  config.ffn_dim = options_.ffn_dim;
  config.dropout = options_.dropout;
  return config;
}

core::DoduoConfig Env::MakeDoduoConfig() const {
  core::DoduoConfig config;
  config.encoder = EncoderConfig();
  // WikiTable's best-validated budget is the paper's 32 tokens/col; on
  // the numeric-heavy VizNet mode the miniature encoder validates best at
  // 8 (see EXPERIMENTS.md, Table 11 discussion).
  config.serializer.max_tokens_per_column =
      options_.mode == BenchmarkMode::kWikiTable ? 32 : 8;
  config.serializer.max_total_tokens = options_.max_positions;
  config.num_types = dataset_.type_vocab.size();
  config.num_relations = dataset_.relation_vocab.size();
  config.multi_label = dataset_.multi_label;
  if (options_.mode == BenchmarkMode::kVizNet) {
    config.tasks = core::TaskSet::kTypesOnly;
    config.num_relations = 0;
  }
  // Fine-tuning defaults; overridable for experimentation without a
  // rebuild (DODUO_FT_EPOCHS / DODUO_FT_LR / DODUO_FT_BATCH).
  config.epochs = static_cast<int>(util::GetEnvInt("DODUO_FT_EPOCHS", 20));
  config.batch_size =
      static_cast<int>(util::GetEnvInt("DODUO_FT_BATCH", 8));
  config.learning_rate = util::GetEnvDouble("DODUO_FT_LR", 2e-3);
  config.seed = options_.seed + 3;
  return config;
}

std::string Env::CacheKey() const {
  uint64_t hash = 1469598103934665603ULL;
  hash = HashCombine(hash, static_cast<uint64_t>(options_.mode));
  hash = HashCombine(hash, options_.seed);
  hash = HashCombine(hash, static_cast<uint64_t>(vocab_.size()));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.hidden_dim));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.num_layers));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.num_heads));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.ffn_dim));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.max_positions));
  hash = HashCombine(hash, static_cast<uint64_t>(options_.pretrain_epochs));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options_.pretrain_batch_size));
  hash = HashCombine(
      hash, static_cast<uint64_t>(options_.pretrain_learning_rate * 1e9));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options_.corpus_fact_mentions));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options_.corpus_type_mentions));
  hash = HashCombine(hash,
                     static_cast<uint64_t>(options_.corpus_list_mentions));
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(options_.mode == BenchmarkMode::kWikiTable
                         ? "lm_wikitable_"
                         : "lm_viznet_") +
         buffer + ".ckpt";
}

void Env::EnsurePretrained() {
  if (pretrainer_ != nullptr) return;

  util::Rng rng(options_.seed + 4);
  // The encoder name must match DoduoModel's so checkpoints interchange.
  pretrained_encoder_ = std::make_unique<transformer::BertModel>(
      "doduo.encoder", EncoderConfig(), &rng);
  mlm_head_ = std::make_unique<transformer::MlmHead>(
      "doduo.mlm", EncoderConfig(), &rng);
  transformer::MlmPretrainer::Options pretrain_options;
  pretrain_options.epochs = options_.pretrain_epochs;
  pretrain_options.batch_size = options_.pretrain_batch_size;
  pretrain_options.learning_rate = options_.pretrain_learning_rate;
  pretrain_options.seed = options_.seed + 5;
  pretrainer_ = std::make_unique<transformer::MlmPretrainer>(
      pretrained_encoder_.get(), mlm_head_.get(), pretrain_options);

  nn::ParameterList params = pretrained_encoder_->Parameters();
  nn::AppendParameters(mlm_head_->Parameters(), &params);

  const std::string cache_path =
      (std::filesystem::path(CacheDir()) / CacheKey()).string();
  if (options_.use_cache && std::filesystem::exists(cache_path)) {
    const util::Status status = nn::LoadParameters(cache_path, params);
    if (status.ok()) {
      DODUO_LOG(Info) << "loaded pre-trained LM from " << cache_path;
      pretrained_encoder_->set_training(false);
      return;
    }
    DODUO_LOG(Warning) << "ignoring stale LM cache: " << status.ToString();
  }

  // Tokenize the corpus and run MLM pre-training.
  synth::CorpusGenerator corpus_generator(&kb_);
  synth::CorpusOptions corpus_options;
  corpus_options.fact_mentions = options_.corpus_fact_mentions;
  corpus_options.type_mentions = options_.corpus_type_mentions;
  corpus_options.list_mentions = options_.corpus_list_mentions;
  corpus_options.seed = options_.seed + 2;
  const std::vector<std::string> corpus =
      corpus_generator.Generate(corpus_options);
  // The corpus is trained both as single sentences (sharp fact binding)
  // and packed into full-length sequences (BERT's packing recipe):
  // position embeddings and long-range attention must be trained across
  // the whole input window, or fine-tuning on ~100-token serialized tables
  // starts from untrained positions.
  std::vector<std::vector<int>> tokenized;
  std::vector<int> packed = {text::Vocab::kClsId};
  for (const std::string& sentence : corpus) {
    const std::vector<int> ids = tokenizer_->Encode(sentence);
    std::vector<int> single = {text::Vocab::kClsId};
    single.insert(single.end(), ids.begin(), ids.end());
    single.push_back(text::Vocab::kSepId);
    if (static_cast<int>(single.size()) <= options_.max_positions) {
      tokenized.push_back(std::move(single));
    }
    if (static_cast<int>(packed.size() + ids.size() + 1) >
        options_.max_positions) {
      if (packed.size() > 1) tokenized.push_back(std::move(packed));
      packed = {text::Vocab::kClsId};
    }
    packed.insert(packed.end(), ids.begin(), ids.end());
    packed.push_back(text::Vocab::kSepId);
  }
  if (packed.size() > 1) tokenized.push_back(std::move(packed));

  util::Stopwatch stopwatch;
  const double final_loss = pretrainer_->Train(tokenized);
  DODUO_LOG(Info) << "MLM pre-training: " << tokenized.size()
                  << " sentences, final loss " << final_loss << " in "
                  << stopwatch.ElapsedSeconds() << "s";

  if (options_.use_cache) {
    std::filesystem::create_directories(CacheDir());
    const util::Status status = nn::SaveParameters(cache_path, params);
    if (!status.ok()) {
      DODUO_LOG(Warning) << "failed to cache LM: " << status.ToString();
    }
  }
}

void Env::InitializeFromPretrained(core::DoduoModel* model) {
  DODUO_CHECK(model != nullptr);
  EnsurePretrained();
  nn::ParameterList source = pretrained_encoder_->Parameters();
  nn::ParameterList target = model->encoder()->Parameters();
  DODUO_CHECK_EQ(source.size(), target.size());
  for (size_t i = 0; i < source.size(); ++i) {
    DODUO_CHECK_EQ(source[i]->name, target[i]->name);
    DODUO_CHECK(nn::SameShape(source[i]->value, target[i]->value));
    // A cache hit leaves the pre-trained weights borrowing the cache
    // file's read-only mapping; fine-tuning needs its own writable copy.
    target[i]->value = source[i]->value.MaterializeOwned();
  }
}

transformer::MlmPretrainer* Env::PretrainedLm() {
  EnsurePretrained();
  return pretrainer_.get();
}

}  // namespace doduo::experiments
