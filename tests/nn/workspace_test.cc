// Workspace slots and the allocation behaviour of Tensor storage. This
// binary replaces the global operator new with a counting one
// (testing/counting_new.cc), which sees every heap allocation.

#include "doduo/nn/workspace.h"

#include "gtest/gtest.h"
#include "testing/counting_new.h"

namespace doduo::nn {
namespace {

TEST(WorkspaceTest, SlotsAreStableAndReused) {
  Workspace ws;
  Tensor& a = ws.Get(0, {4, 8});
  const float* a_data = a.data();
  a.Fill(1.0f);

  // Adding later slots must not move earlier ones.
  Tensor& b = ws.Get(5, {16});
  EXPECT_EQ(&ws.Get(0, {4, 8}), &a);
  EXPECT_EQ(a.data(), a_data);
  EXPECT_NE(&a, &b);

  // Same slot, same shape: the exact buffer comes back.
  Tensor& a2 = ws.Get(0, {4, 8});
  EXPECT_EQ(a2.data(), a_data);
}

TEST(WorkspaceTest, BuffersGrowToHighWaterMarkThenStopAllocating) {
  Workspace ws;
  ws.Get(0, {2, 2});
  ws.Get(0, {8, 8});  // grow
  const size_t before = doduo::testing::OperatorNewCalls();
  ws.Get(0, {4, 4});  // shrink within capacity
  ws.Get(0, {8, 8});  // back to high-water mark
  EXPECT_EQ(doduo::testing::OperatorNewCalls() - before, 0u);
  EXPECT_EQ(ws.Get(0, {8, 8}).size(), 64);
}

TEST(WorkspaceTest, TotalFloatsSumsSlots) {
  Workspace ws;
  ws.Get(0, {4, 8});
  ws.Get(1, {16});
  EXPECT_EQ(ws.TotalFloats(), 4 * 8 + 16);
}

TEST(AllocCountTest, CountsTensorBufferAllocations) {
  size_t before = doduo::testing::OperatorNewCalls();
  Tensor t({8, 8});
  EXPECT_GE(doduo::testing::OperatorNewCalls() - before, 1u);

  // Reuse within capacity is free.
  before = doduo::testing::OperatorNewCalls();
  t.ResizeUninitialized({4, 4});
  t.ResizeUninitialized({8, 8});
  EXPECT_EQ(doduo::testing::OperatorNewCalls() - before, 0u);

  // Copy-assign into a large-enough buffer is free; growth is counted.
  const Tensor small({2, 2});
  const Tensor big({32, 32});
  before = doduo::testing::OperatorNewCalls();
  t = small;
  EXPECT_EQ(doduo::testing::OperatorNewCalls() - before, 0u);
  t = big;
  EXPECT_GE(doduo::testing::OperatorNewCalls() - before, 1u);
}

}  // namespace
}  // namespace doduo::nn
