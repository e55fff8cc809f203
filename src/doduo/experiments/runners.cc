#include "doduo/experiments/runners.h"

#include "doduo/baselines/turl.h"
#include "doduo/core/calibration.h"
#include "doduo/util/env.h"
#include "doduo/util/logging.h"
#include "doduo/util/stopwatch.h"

namespace doduo::experiments {

DoduoRun RunDoduoOn(Env* env,
                    const table::ColumnAnnotationDataset& dataset,
                    const table::DatasetSplits& splits,
                    const DoduoVariant& variant) {
  DODUO_CHECK(env != nullptr);
  core::DoduoConfig config = env->MakeDoduoConfig();
  config.input_mode = variant.input_mode;
  if (variant.tasks >= 0) {
    config.tasks = static_cast<core::TaskSet>(variant.tasks);
  }
  config.serializer.max_tokens_per_column = variant.max_tokens_per_column;
  config.serializer.include_metadata = variant.include_metadata;
  if (variant.epochs > 0) config.epochs = variant.epochs;
  config.seed += variant.seed_offset;
  if (config.tasks == core::TaskSet::kTypesOnly) config.num_relations = 0;

  table::DatasetSplits effective_splits = splits;
  if (variant.train_fraction < 1.0) {
    effective_splits.train =
        table::SubsampleIndices(splits.train, variant.train_fraction);
  }

  DoduoRun run;
  util::Rng rng(config.seed);
  run.model = std::make_unique<core::DoduoModel>(config, &rng);
  if (variant.from_pretrained) {
    env->InitializeFromPretrained(run.model.get());
  }
  if (variant.turl_visibility_mask) {
    run.model->set_mask_builder(
        baselines::MakeTurlVisibilityMaskBuilder());
  }
  run.serializer = std::make_unique<table::TableSerializer>(
      &env->tokenizer(), config.serializer);
  run.trainer = std::make_unique<core::Trainer>(run.model.get(),
                                                run.serializer.get());

  util::Stopwatch stopwatch;
  run.history = run.trainer->Train(dataset, effective_splits);
  run.has_relations = config.tasks != core::TaskSet::kTypesOnly &&
                      dataset.num_relations() > 0;
  // Each task is reported at its own best-validation checkpoint.
  if (run.has_relations) {
    run.trainer->RestoreBestRelationCheckpoint();
    run.relations = run.trainer->EvaluateRelations(dataset, splits.test);
  }
  run.trainer->RestoreBestTypeCheckpoint();
  run.types = run.trainer->EvaluateTypes(dataset, splits.test);
  // Fit the confidence temperature on the validation split at the type
  // checkpoint that ships, so saved models carry calibrated confidences.
  const double temperature = core::FitTemperature(
      core::CollectTypeCalibration(run.model.get(), run.serializer.get(),
                                   dataset, splits.valid),
      config.multi_label);
  run.model->set_calibration_temperature(temperature);
  DODUO_LOG(Info) << "fine-tuned variant in " << stopwatch.ElapsedSeconds()
                  << "s: type F1 " << run.types.micro.f1
                  << (run.has_relations
                          ? " rel F1 " + std::to_string(run.relations.micro.f1)
                          : "");
  return run;
}

DoduoRun RunDoduo(Env* env, const DoduoVariant& variant) {
  return RunDoduoOn(env, env->dataset(), env->splits(), variant);
}

core::EvalResult RunSherlock(Env* env) {
  DODUO_CHECK(env != nullptr);
  baselines::SherlockOptions options;
  options.multi_label = env->dataset().multi_label;
  options.seed = env->options().seed + 11;
  baselines::SherlockModel sherlock(env->dataset().type_vocab.size(),
                                    options);
  sherlock.Train(env->dataset(), env->splits());
  return sherlock.EvaluateTypes(env->dataset(), env->splits().test);
}

core::EvalResult RunSato(Env* env) {
  DODUO_CHECK(env != nullptr);
  DODUO_CHECK(!env->dataset().multi_label)
      << "Sato runs on single-label datasets (VizNet), as in the paper";
  baselines::SatoModel::Options options;
  options.sherlock.multi_label = false;
  options.sherlock.seed = env->options().seed + 12;
  options.lda.seed = env->options().seed + 13;
  options.crf.seed = env->options().seed + 14;
  baselines::SatoModel sato(env->dataset().type_vocab.size(), options);
  sato.Train(env->dataset(), env->splits());
  return sato.EvaluateTypes(env->dataset(), env->splits().test);
}

}  // namespace doduo::experiments
