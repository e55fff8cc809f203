#include "doduo/text/vocab.h"

#include <fstream>

#include "doduo/util/check.h"

namespace doduo::text {

Vocab::Vocab() {
  for (const char* token : {kPadToken, kUnkToken, kClsToken, kSepToken,
                            kMaskToken}) {
    AddToken(token);
  }
}

int Vocab::AddToken(std::string_view token) {
  auto it = ids_.find(token);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(tokens_.size());
  tokens_.emplace_back(token);
  ids_.emplace(tokens_.back(), id);
  return id;
}

int Vocab::Id(std::string_view token) const {
  auto it = ids_.find(token);
  return it != ids_.end() ? it->second : kUnkId;
}

bool Vocab::Contains(std::string_view token) const {
  return ids_.find(token) != ids_.end();
}

const std::string& Vocab::Token(int id) const {
  DODUO_CHECK(id >= 0 && id < size()) << "vocab id out of range: " << id;
  return tokens_[static_cast<size_t>(id)];
}

util::Status Vocab::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot open " + path);
  for (const std::string& token : tokens_) out << token << "\n";
  if (!out) return util::Status::IoError("failed writing " + path);
  return util::Status::Ok();
}

util::Result<Vocab> Vocab::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IoError("cannot open " + path);
  Vocab vocab;
  std::string line;
  int index = 0;
  while (std::getline(in, line)) {
    if (index < kNumSpecialTokens) {
      if (line != vocab.Token(index)) {
        return util::Status::InvalidArgument(
            path + " line " + std::to_string(index) +
            " is not the expected special token");
      }
    } else {
      vocab.AddToken(line);
    }
    ++index;
  }
  if (index < kNumSpecialTokens) {
    return util::Status::InvalidArgument(path + " is not a vocab file");
  }
  return vocab;
}

}  // namespace doduo::text
