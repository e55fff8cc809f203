// Seeded discarded-result cases for the compile-fail ctests in the root
// CMakeLists.txt (discarded_status_*). Never part of a build target: each
// ctest compiles this file alone with -fsyntax-only and one DISCARD_CASE
// selected. util::Status and util::Result<T> are [[nodiscard]] types and
// the build passes -Werror=unused-result, so every case but the (void)
// cast must be rejected by the compiler.

#include "doduo/util/status.h"

namespace {

using doduo::util::Result;
using doduo::util::Status;

Status Save() { return Status(); }
Result<int> Parse() { return 1; }

struct Vocab {
  Status Save() const { return Status(); }
};

}  // namespace

void DiscardCase([[maybe_unused]] bool c,
                 [[maybe_unused]] const Vocab& vocab) {
#if DISCARD_CASE == 1  // bare call statement
  Save();
#elif DISCARD_CASE == 2  // member-chain call
  vocab.Save();
#elif DISCARD_CASE == 3  // single-statement if body
  if (c) Save();
#elif DISCARD_CASE == 4  // Result<T>
  Parse();
#else  // explicit discard: compiles cleanly
  (void)Save();
  (void)Parse();
#endif
}
