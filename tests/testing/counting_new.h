#ifndef DODUO_TESTS_TESTING_COUNTING_NEW_H_
#define DODUO_TESTS_TESTING_COUNTING_NEW_H_

// A counting replacement of the global operator new, for the tests that
// pin "this path does not allocate". Link testing/counting_new.cc into a
// test binary of its own: the replacement covers the whole binary.

#include <cstddef>

namespace doduo::testing {

/// Calls of the global operator new (and new[], the nothrow and the
/// std::align_val_t forms) so far in this process.
size_t OperatorNewCalls();

/// The largest single operator new (or new[]) request, in bytes, since the
/// last ResetLargestOperatorNew() (or the start of the process).
size_t LargestOperatorNew();
void ResetLargestOperatorNew();

}  // namespace doduo::testing

#endif  // DODUO_TESTS_TESTING_COUNTING_NEW_H_
