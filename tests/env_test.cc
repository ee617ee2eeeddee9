#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "common/thread_pool.h"
#include "serving/latency_profiler.h"
#include "tiering/fault_injector.h"

namespace hytap {
namespace {

constexpr const char* kKnob = "HYTAP_ENV_TEST_KNOB";

/// Sets `name` to `value`, or unsets it when `value` is null.
void SetEnv(const char* name, const char* value) {
  if (value == nullptr) {
    unsetenv(name);
  } else {
    setenv(name, value, 1);
  }
}

const char* Show(const char* value) {
  return value == nullptr ? "(unset)" : value;
}

TEST(EnvTest, BoolSpellings) {
  struct Case {
    const char* value;
    bool fallback;
    bool expected;
  };
  const Case cases[] = {
      {nullptr, true, true}, {nullptr, false, false},
      {"", true, true},      {"", false, false},
      {"0", true, false},    {"off", true, false},
      {"OFF", true, false},  {"false", true, false},
      {"False", true, false}, {"no", true, false},
      {"NO", true, false},   {"1", false, true},
      {"on", false, true},   {"ON", false, true},
      {"true", false, true}, {"TRUE", false, true},
      {"yes", false, true},  {"Yes", false, true},
      {"2", true, true},     {"2", false, false},
      {"maybe", true, true}, {"maybe", false, false},
      {" on", false, false}, {"off ", true, true},
  };
  for (const Case& c : cases) {
    SetEnv(kKnob, c.value);
    EXPECT_EQ(EnvBool(kKnob, c.fallback), c.expected)
        << "value=" << Show(c.value) << " fallback=" << c.fallback;
  }
  unsetenv(kKnob);
}

TEST(EnvTest, U64Spellings) {
  constexpr uint64_t kFallback = 7;
  struct Case {
    const char* value;
    uint64_t expected;
  };
  const Case cases[] = {
      {nullptr, kFallback},
      {"", kFallback},
      {"0", 0},
      {"42", 42},
      {"007", 7},
      {"18446744073709551615", UINT64_MAX},
      {"18446744073709551616", kFallback},  // overflows
      {"abc", kFallback},
      {"4abc", kFallback},
      {"-1", kFallback},
      {"+5", kFallback},
      {" 5", kFallback},
      {"5 ", kFallback},
      {"1.5", kFallback},
      {"0x10", kFallback},
  };
  for (const Case& c : cases) {
    SetEnv(kKnob, c.value);
    EXPECT_EQ(EnvU64(kKnob, kFallback), c.expected)
        << "value=" << Show(c.value);
  }
  unsetenv(kKnob);
}

TEST(EnvTest, DoubleSpellings) {
  constexpr double kFallback = 2.5;
  struct Case {
    const char* value;
    double expected;
  };
  const Case cases[] = {
      {nullptr, kFallback}, {"", kFallback},    {"0", 0.0},
      {"-1", -1.0},         {"0.25", 0.25},     {"1e3", 1000.0},
      {"abc", kFallback},   {"1.5x", kFallback}, {" 1", kFallback},
      {"1 ", kFallback},    {"nan", kFallback}, {"inf", kFallback},
      {"1e999", kFallback},
  };
  for (const Case& c : cases) {
    SetEnv(kKnob, c.value);
    EXPECT_EQ(EnvDouble(kKnob, kFallback), c.expected)
        << "value=" << Show(c.value);
  }
  unsetenv(kKnob);
}

double ReadWorkers() { return double(ThreadPool::DefaultWorkerCount()); }

/// The knobs read through the shared parser follow its spelling rule, and
/// each keeps its own range clamp at the call site.
TEST(EnvTest, KnobsFollowTheRuleAndKeepTheirClamps) {
  unsetenv("HYTAP_THREADS");
  const double default_workers = ReadWorkers();
  struct Case {
    const char* name;
    const char* value;
    double (*read)();
    double expected;
  };
  const Case cases[] = {
      // Unparsable values keep the default.
      {"HYTAP_SLO_OLTP_NS", "5ms",
       [] { return double(LatencyProfiler::Options::FromEnv().oltp_slo_ns); },
       2'000'000},
      // Clamps stay where they were.
      {"HYTAP_FAULT_READ_ERROR_RATE", "1.5",
       [] { return FaultConfig::FromEnv().read_error_rate; }, 1.0},
      {"HYTAP_FAULT_READ_ERROR_RATE", "-0.5",
       [] { return FaultConfig::FromEnv().read_error_rate; }, 0.0},
      {"HYTAP_SLO_TARGET_PPM", "1000000",
       [] { return double(LatencyProfiler::Options::FromEnv().target_ppm); },
       999'999},
      // The pool starts one OS thread per worker but the caller: beyond
      // 1024 workers the override is ignored. Only the count is read here;
      // no pool is ever built from these values.
      {"HYTAP_THREADS", "3", ReadWorkers, 3},
      {"HYTAP_THREADS", "1024", ReadWorkers, 1024},
      {"HYTAP_THREADS", "1025", ReadWorkers, default_workers},
      {"HYTAP_THREADS", "18446744073709551615", ReadWorkers, default_workers},
      {"HYTAP_THREADS", "0", ReadWorkers, default_workers},
  };
  for (const Case& c : cases) {
    SetEnv(c.name, c.value);
    EXPECT_EQ(c.read(), c.expected) << c.name << "=" << c.value;
    unsetenv(c.name);
  }
}

}  // namespace
}  // namespace hytap
