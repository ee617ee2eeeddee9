#include "storage/dictionary.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace hytap {
namespace {

TEST(OrderPreservingDictionaryTest, BuildSortsAndDedups) {
  auto dict = OrderPreservingDictionary<int32_t>::Build({5, 3, 5, 1, 3, 9});
  ASSERT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.ValueFor(0), 1);
  EXPECT_EQ(dict.ValueFor(1), 3);
  EXPECT_EQ(dict.ValueFor(2), 5);
  EXPECT_EQ(dict.ValueFor(3), 9);
}

TEST(OrderPreservingDictionaryTest, OrderPreservation) {
  // Invariant: code order equals value order.
  Rng rng(11);
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(rng.NextInt(-500, 500));
  auto dict = OrderPreservingDictionary<int64_t>::Build(values);
  for (ValueId c = 1; c < dict.size(); ++c) {
    EXPECT_LT(dict.ValueFor(c - 1), dict.ValueFor(c));
  }
}

TEST(OrderPreservingDictionaryTest, CodeForExact) {
  auto dict = OrderPreservingDictionary<int32_t>::Build({10, 20, 30});
  EXPECT_EQ(dict.CodeFor(10), ValueId{0});
  EXPECT_EQ(dict.CodeFor(20), ValueId{1});
  EXPECT_EQ(dict.CodeFor(30), ValueId{2});
  EXPECT_FALSE(dict.CodeFor(15).has_value());
  EXPECT_FALSE(dict.CodeFor(0).has_value());
  EXPECT_FALSE(dict.CodeFor(31).has_value());
}

TEST(OrderPreservingDictionaryTest, Bounds) {
  auto dict = OrderPreservingDictionary<int32_t>::Build({10, 20, 30});
  EXPECT_EQ(dict.LowerBoundCode(5), 0u);
  EXPECT_EQ(dict.LowerBoundCode(10), 0u);
  EXPECT_EQ(dict.LowerBoundCode(11), 1u);
  EXPECT_EQ(dict.LowerBoundCode(31), 3u);  // past the end
  EXPECT_EQ(dict.UpperBoundCode(10), 1u);
  EXPECT_EQ(dict.UpperBoundCode(9), 0u);
  EXPECT_EQ(dict.UpperBoundCode(30), 3u);
}

TEST(OrderPreservingDictionaryTest, Strings) {
  auto dict = OrderPreservingDictionary<std::string>::Build(
      {"pear", "apple", "fig", "apple"});
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.ValueFor(0), "apple");
  EXPECT_EQ(dict.ValueFor(2), "pear");
  EXPECT_EQ(dict.CodeFor("fig"), ValueId{1});
}

TEST(OrderPreservingDictionaryTest, BuildReturnsEveryValuesCode) {
  Rng rng(5);
  std::vector<int32_t> numbers;
  std::vector<std::string> strings;
  for (int i = 0; i < 2000; ++i) {
    numbers.push_back(int32_t(rng.NextInt(-300, 300)));
    strings.push_back("v" + std::to_string(rng.NextBounded(150)));
  }
  std::vector<ValueId> codes;
  const auto number_dict =
      OrderPreservingDictionary<int32_t>::Build(numbers, &codes);
  ASSERT_EQ(codes.size(), numbers.size());
  for (size_t i = 0; i < numbers.size(); ++i) {
    ASSERT_EQ(number_dict.CodeFor(numbers[i]), codes[i]) << "row " << i;
  }
  const auto string_dict =
      OrderPreservingDictionary<std::string>::Build(strings, &codes);
  ASSERT_EQ(codes.size(), strings.size());
  for (size_t i = 0; i < strings.size(); ++i) {
    ASSERT_EQ(string_dict.CodeFor(strings[i]), codes[i]) << "row " << i;
  }
  OrderPreservingDictionary<int32_t>::Build({}, &codes);
  EXPECT_TRUE(codes.empty());
}

TEST(OrderPreservingDictionaryTest, EmptyDictionary) {
  auto dict = OrderPreservingDictionary<int32_t>::Build({});
  EXPECT_TRUE(dict.empty());
  EXPECT_EQ(dict.LowerBoundCode(1), 0u);
  EXPECT_FALSE(dict.CodeFor(1).has_value());
}

TEST(UnsortedDictionaryTest, InsertionOrderCodes) {
  UnsortedDictionary<int32_t> dict;
  EXPECT_EQ(dict.GetOrAdd(50), ValueId{0});
  EXPECT_EQ(dict.GetOrAdd(10), ValueId{1});
  EXPECT_EQ(dict.GetOrAdd(50), ValueId{0});  // existing
  EXPECT_EQ(dict.GetOrAdd(30), ValueId{2});
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict.ValueFor(1), 10);
  EXPECT_EQ(dict.CodeFor(30), ValueId{2});
  EXPECT_FALSE(dict.CodeFor(99).has_value());
}

TEST(UnsortedDictionaryTest, StringsRoundTrip) {
  UnsortedDictionary<std::string> dict;
  const ValueId a = dict.GetOrAdd("alpha");
  const ValueId b = dict.GetOrAdd("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.ValueFor(a), "alpha");
  EXPECT_EQ(dict.ValueFor(b), "beta");
}

TEST(DictionaryTest, MemoryUsagePositive) {
  auto dict = OrderPreservingDictionary<int32_t>::Build({1, 2, 3});
  EXPECT_GT(dict.MemoryUsage(), 0u);
  UnsortedDictionary<int32_t> unsorted;
  unsorted.GetOrAdd(1);
  EXPECT_GT(unsorted.MemoryUsage(), 0u);
}

}  // namespace
}  // namespace hytap
