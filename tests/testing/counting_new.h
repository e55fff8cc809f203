#ifndef DODUO_TESTS_TESTING_COUNTING_NEW_H_
#define DODUO_TESTS_TESTING_COUNTING_NEW_H_

// A counting replacement of the global operator new, for the tests that
// pin "this path does not allocate". Link testing/counting_new.cc into a
// test binary of its own: the replacement covers the whole binary.

#include <cstddef>

namespace doduo::testing {

/// Calls of the global operator new (and new[]) so far in this process.
size_t OperatorNewCalls();

}  // namespace doduo::testing

#endif  // DODUO_TESTS_TESTING_COUNTING_NEW_H_
