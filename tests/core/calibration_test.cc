#include "doduo/core/calibration.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace doduo::core {
namespace {

/// 100 single-label examples over 3 classes with identical logits
/// [margin, 0, 0]; the argmax class is correct for `correct` of them and
/// class 1 is gold for the rest.
std::vector<CalibrationExample> MakeSingleLabelExamples(float margin,
                                                        int correct) {
  std::vector<CalibrationExample> examples;
  for (int i = 0; i < 100; ++i) {
    CalibrationExample example;
    example.logits = {margin, 0.0f, 0.0f};
    example.labels = {i < correct ? 0 : 1};
    examples.push_back(std::move(example));
  }
  return examples;
}

TEST(FitTemperatureTest, WellCalibratedLogitsKeepTemperatureNearOne) {
  // softmax([2,0,0])[0] ~= 0.79, and the argmax is right 79% of the time:
  // already calibrated, so the fitted temperature stays near identity.
  const double t = FitTemperature(MakeSingleLabelExamples(2.0f, 79),
                                  /*multi_label=*/false);
  EXPECT_GT(t, 0.7);
  EXPECT_LT(t, 1.4);
}

TEST(FitTemperatureTest, OverconfidentLogitsGetHighTemperature) {
  // Same 79% accuracy but logits scaled 10x: the minimizer must scale
  // them back down, i.e. a temperature near 10.
  const double t = FitTemperature(MakeSingleLabelExamples(20.0f, 79),
                                  /*multi_label=*/false);
  EXPECT_GT(t, 5.0);
  EXPECT_LT(t, 18.0);
}

TEST(FitTemperatureTest, UnderconfidentLogitsGetLowTemperature) {
  // Tiny margins but 79% accuracy: sharpen, temperature well below 1.
  const double t = FitTemperature(MakeSingleLabelExamples(0.2f, 79),
                                  /*multi_label=*/false);
  EXPECT_LT(t, 0.5);
}

TEST(FitTemperatureTest, EmptyOrUnlabeledInputIsIdentity) {
  EXPECT_EQ(FitTemperature({}, false), 1.0);
  std::vector<CalibrationExample> unlabeled(3);
  for (auto& example : unlabeled) example.logits = {1.0f, 0.0f};
  EXPECT_EQ(FitTemperature(unlabeled, false), 1.0);
}

TEST(FitTemperatureTest, MultiLabelUsesBinaryNll) {
  // Class 0 fires with logit 3 but is only present 70% of the time;
  // sigmoid(3/T) = 0.7 at T ~= 3.54.
  std::vector<CalibrationExample> examples;
  for (int i = 0; i < 100; ++i) {
    CalibrationExample example;
    example.logits = {3.0f};
    if (i < 70) example.labels = {0};
    // Multi-label examples with an empty gold set still carry signal for
    // the binary losses, but FitTemperature skips label-less rows to keep
    // the single-label contract; give the negatives an out-of-range class.
    if (i >= 70) example.labels = {1};
    examples.push_back(std::move(example));
  }
  const double t = FitTemperature(examples, /*multi_label=*/true);
  EXPECT_GT(t, 2.5);
  EXPECT_LT(t, 5.0);
}

TEST(CalibratedConfidenceTest, MatchesSoftmaxAtIdentity) {
  const float logits[] = {2.0f, 0.0f, 0.0f};
  const double expected =
      std::exp(2.0) / (std::exp(2.0) + 2.0);
  EXPECT_NEAR(CalibratedConfidence(logits, 3, 1.0, false), expected, 1e-9);
}

TEST(CalibratedConfidenceTest, HigherTemperatureLowersConfidence) {
  const float logits[] = {4.0f, 1.0f, -2.0f};
  double previous = 1.0;
  for (double t : {0.5, 1.0, 2.0, 8.0}) {
    const double confidence = CalibratedConfidence(logits, 3, t, false);
    EXPECT_LT(confidence, previous);
    EXPECT_GT(confidence, 1.0 / 3.0);  // never below uniform
    previous = confidence;
  }
  // As T grows the distribution flattens toward uniform.
  EXPECT_NEAR(CalibratedConfidence(logits, 3, 1e6, false), 1.0 / 3.0, 1e-3);
}

TEST(CalibratedConfidenceTest, MultiLabelIsSigmoidOfMaxLogit) {
  const float logits[] = {-1.0f, 3.0f};
  EXPECT_NEAR(CalibratedConfidence(logits, 2, 1.0, true),
              1.0 / (1.0 + std::exp(-3.0)), 1e-9);
  EXPECT_NEAR(CalibratedConfidence(logits, 2, 3.0, true),
              1.0 / (1.0 + std::exp(-1.0)), 1e-9);
}

TEST(DecodeClassesTest, LogitExactlyAtTheCutIsNotPicked) {
  // t = 0.5 puts the cut at logit 0; for t = 0.7 it is computed the way
  // the decoder computes it, so the second logit sits exactly on it.
  const float at_half[] = {0.0f, 0.5f, -0.5f};
  EXPECT_EQ(DecodeClasses(at_half, 3, /*multi_label=*/true, 0.5f),
            std::vector<int>({1}));
  const float cut = std::log(0.7f) - std::log(1.0f - 0.7f);
  const float at_cut[] = {cut + 1.0f, cut, std::nextafter(cut, 10.0f)};
  EXPECT_EQ(DecodeClasses(at_cut, 3, /*multi_label=*/true, 0.7f),
            std::vector<int>({0, 2}));
}

TEST(DecodeClassesTest, EmptyPickFallsBackToTheArgmax) {
  const float logits[] = {-3.0f, -1.0f, -2.0f};
  EXPECT_EQ(DecodeClasses(logits, 3, /*multi_label=*/true, 0.5f),
            std::vector<int>({1}));
  EXPECT_EQ(DecodeClasses(logits, 3, /*multi_label=*/false, 0.5f),
            std::vector<int>({1}));
}

TEST(DecodeClassesTest, ArgmaxTiesTakeTheLowestIndex) {
  const float logits[] = {-2.0f, -1.0f, -1.0f, -1.0f};
  EXPECT_EQ(DecodeClasses(logits, 4, /*multi_label=*/false, 0.5f),
            std::vector<int>({1}));
  EXPECT_EQ(DecodeClasses(logits, 4, /*multi_label=*/true, 0.5f),
            std::vector<int>({1}));
  // Single-label decoding ignores the threshold.
  const float positive[] = {2.0f, 3.0f, 3.0f};
  EXPECT_EQ(DecodeClasses(positive, 3, /*multi_label=*/false, 0.5f),
            std::vector<int>({1}));
}

}  // namespace
}  // namespace doduo::core
