#ifndef DODUO_TEXT_VOCAB_H_
#define DODUO_TEXT_VOCAB_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "doduo/util/status.h"

namespace doduo::text {

/// Token-string ↔ id mapping with BERT-style special tokens at fixed ids:
/// [PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3, [MASK]=4.
class Vocab {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;
  static constexpr int kClsId = 2;
  static constexpr int kSepId = 3;
  static constexpr int kMaskId = 4;
  static constexpr int kNumSpecialTokens = 5;

  static constexpr const char* kPadToken = "[PAD]";
  static constexpr const char* kUnkToken = "[UNK]";
  static constexpr const char* kClsToken = "[CLS]";
  static constexpr const char* kSepToken = "[SEP]";
  static constexpr const char* kMaskToken = "[MASK]";

  /// Creates a vocab containing only the special tokens.
  Vocab();

  /// Adds `token` if absent; returns its id either way.
  int AddToken(std::string_view token);

  /// Id of `token`, or kUnkId when unknown.
  int Id(std::string_view token) const;

  /// True if `token` is present.
  bool Contains(std::string_view token) const;

  /// Token string for `id`; dies on out-of-range ids.
  const std::string& Token(int id) const;

  /// Number of tokens including the specials.
  int size() const { return static_cast<int>(tokens_.size()); }

  /// True for the five reserved ids.
  static bool IsSpecial(int id) { return id < kNumSpecialTokens; }

  /// Writes one token per line.
  [[nodiscard]] util::Status Save(const std::string& path) const;

  /// Reads a vocab written by Save; the first five lines must be the
  /// special tokens.
  [[nodiscard]] static util::Result<Vocab> Load(const std::string& path);

 private:
  // Transparent hash + std::equal_to<>: a string_view is looked up as it
  // is, without building a std::string per WordPiece candidate.
  struct TokenHash {
    using is_transparent = void;
    size_t operator()(std::string_view token) const {
      return std::hash<std::string_view>{}(token);
    }
  };

  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int, TokenHash, std::equal_to<>> ids_;
};

}  // namespace doduo::text

#endif  // DODUO_TEXT_VOCAB_H_
