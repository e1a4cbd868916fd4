// Order-maintenance list: correctness against a reference std::vector under
// random operation streams, plus the adversarial insertion patterns the
// AsyncDF scheduler produces (repeated insert-before at one position).
#include "core/order_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace dfth {
namespace {

TEST(OrderList, EmptyBasics) {
  OrderList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.front(), nullptr);
  EXPECT_EQ(list.back(), nullptr);
  EXPECT_TRUE(list.check_invariants());
}

TEST(OrderList, PushFrontBackOrdering) {
  OrderList list;
  OrderNode a, b, c;
  list.push_back(&a);
  list.push_back(&b);
  list.push_front(&c);
  EXPECT_EQ(list.front(), &c);
  EXPECT_EQ(list.back(), &b);
  EXPECT_TRUE(list.before(&c, &a));
  EXPECT_TRUE(list.before(&a, &b));
  EXPECT_FALSE(list.before(&b, &a));
  EXPECT_TRUE(list.check_invariants());
}

TEST(OrderList, InsertBeforeAfter) {
  OrderList list;
  OrderNode a, b, mid;
  list.push_back(&a);
  list.push_back(&b);
  list.insert_after(&a, &mid);
  EXPECT_TRUE(list.before(&a, &mid));
  EXPECT_TRUE(list.before(&mid, &b));
  list.erase(&mid);
  OrderNode mid2;
  list.insert_before(&b, &mid2);
  EXPECT_TRUE(list.before(&a, &mid2));
  EXPECT_TRUE(list.before(&mid2, &b));
  EXPECT_TRUE(list.check_invariants());
}

TEST(OrderList, EraseUnlinksNode) {
  OrderList list;
  OrderNode a, b;
  list.push_back(&a);
  list.push_back(&b);
  list.erase(&a);
  EXPECT_FALSE(a.linked());
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.front(), &b);
  // Node is reusable after erase.
  list.push_back(&a);
  EXPECT_TRUE(list.before(&b, &a));
}

// The AsyncDF adversary: every fork inserts immediately before the same
// parent node, exhausting the tag gap at one spot and forcing relabels.
TEST(OrderList, RepeatedInsertBeforeSamePosition) {
  OrderList list;
  OrderNode parent;
  list.push_back(&parent);
  constexpr int kChildren = 5000;
  std::vector<std::unique_ptr<OrderNode>> kids;
  kids.reserve(kChildren);
  const OrderNode* prev = nullptr;
  for (int i = 0; i < kChildren; ++i) {
    kids.push_back(std::make_unique<OrderNode>());
    list.insert_before(&parent, kids.back().get());
    if (prev) {
      EXPECT_TRUE(list.before(prev, kids.back().get()));
    }
    prev = kids.back().get();
  }
  ASSERT_TRUE(list.check_invariants());
  // Every child precedes the parent; children are in insertion order.
  for (const auto& kid : kids) EXPECT_TRUE(list.before(kid.get(), &parent));
  EXPECT_GT(list.relabel_count(), 0u) << "adversary should trigger relabeling";
}

TEST(OrderList, RepeatedInsertAfterHead) {
  OrderList list;
  OrderNode anchor;
  list.push_back(&anchor);
  std::vector<std::unique_ptr<OrderNode>> nodes;
  for (int i = 0; i < 5000; ++i) {
    nodes.push_back(std::make_unique<OrderNode>());
    list.insert_after(&anchor, nodes.back().get());
  }
  ASSERT_TRUE(list.check_invariants());
  // insert_after reverses: later inserts come earlier.
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_TRUE(list.before(nodes[i].get(), nodes[i - 1].get()));
  }
}

class OrderListRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderListRandomTest, MatchesReferenceSequence) {
  Rng rng(GetParam());
  OrderList list;
  std::vector<OrderNode*> reference;  // mirror of the list, in order
  std::vector<std::unique_ptr<OrderNode>> owned;

  for (int step = 0; step < 4000; ++step) {
    const auto action = rng.next_below(reference.empty() ? 2 : 5);
    switch (action) {
      case 0: {  // push_back
        owned.push_back(std::make_unique<OrderNode>());
        list.push_back(owned.back().get());
        reference.push_back(owned.back().get());
        break;
      }
      case 1: {  // push_front
        owned.push_back(std::make_unique<OrderNode>());
        list.push_front(owned.back().get());
        reference.insert(reference.begin(), owned.back().get());
        break;
      }
      case 2: {  // insert_before random node
        const auto i = rng.next_below(reference.size());
        owned.push_back(std::make_unique<OrderNode>());
        list.insert_before(reference[i], owned.back().get());
        reference.insert(reference.begin() + static_cast<std::ptrdiff_t>(i),
                         owned.back().get());
        break;
      }
      case 3: {  // insert_after random node
        const auto i = rng.next_below(reference.size());
        owned.push_back(std::make_unique<OrderNode>());
        list.insert_after(reference[i], owned.back().get());
        reference.insert(reference.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                         owned.back().get());
        break;
      }
      case 4: {  // erase random node
        const auto i = rng.next_below(reference.size());
        list.erase(reference[i]);
        reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }

  ASSERT_TRUE(list.check_invariants());
  ASSERT_EQ(list.size(), reference.size());
  // Walk the list and compare against the reference order.
  std::size_t idx = 0;
  for (OrderNode* n = list.front(); n && n != list.end_sentinel(); n = n->next) {
    ASSERT_LT(idx, reference.size());
    EXPECT_EQ(n, reference[idx]) << "position " << idx;
    ++idx;
  }
  EXPECT_EQ(idx, reference.size());
  // before() agrees with positions for random pairs.
  for (int q = 0; q < 200 && reference.size() >= 2; ++q) {
    const auto i = rng.next_below(reference.size());
    const auto j = rng.next_below(reference.size());
    if (i == j) continue;
    EXPECT_EQ(list.before(reference[i], reference[j]), i < j);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderListRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dfth
