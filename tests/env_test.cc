#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "core/retier_daemon.h"
#include "serving/latency_profiler.h"
#include "serving/session_manager.h"
#include "tiering/fault_injector.h"
#include "tiering/secondary_store.h"
#include "workload/workload_monitor.h"

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

double ReadRetries() {
  return double(SecondaryStore(DeviceKind::kCssd).max_read_retries());
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

/// The knobs read through the shared parser follow its spelling rule, and
/// each keeps its own range clamp at the call site.
TEST(EnvTest, KnobsFollowTheRuleAndKeepTheirClamps) {
  struct Case {
    const char* name;
    const char* value;
    double (*read)();
    double expected;
  };
  const Case cases[] = {
      // Unparsable or empty values keep the default.
      {"HYTAP_RETIER_DWELL_WINDOWS", "abc",
       [] { return double(RetierOptions::FromEnv().dwell_windows); }, 2},
      {"HYTAP_RETIER_CALIBRATED", "",
       [] { return double(RetierOptions::FromEnv().use_calibrated_params); },
       0},
      {"HYTAP_RETIER_CALIBRATED", "YES",
       [] { return double(RetierOptions::FromEnv().use_calibrated_params); },
       1},
      {"HYTAP_RETIER_ON_IDLE", "On",
       [] { return double(SessionOptions::FromEnv().retier_on_idle); }, 1},
      {"HYTAP_SLO_OLTP_NS", "5ms",
       [] { return double(LatencyProfiler::Options::FromEnv().oltp_slo_ns); },
       2'000'000},
      // Clamps stay where they were.
      {"HYTAP_SESSION_QUEUE_CAP", "0",
       [] { return double(SessionOptions::FromEnv().queue_capacity); }, 256},
      {"HYTAP_MAX_READ_RETRIES", "64", ReadRetries, 64},
      {"HYTAP_MAX_READ_RETRIES", "65", ReadRetries, 4},
      {"HYTAP_WORKLOAD_WINDOWS", "1",
       [] { return double(WorkloadMonitor::Options::FromEnv().windows); },
       16},
      {"HYTAP_FAULT_READ_ERROR_RATE", "1.5",
       [] { return FaultConfig::FromEnv().read_error_rate; }, 1.0},
      {"HYTAP_FAULT_READ_ERROR_RATE", "-0.5",
       [] { return FaultConfig::FromEnv().read_error_rate; }, 0.0},
      {"HYTAP_SLO_TARGET_PPM", "1000000",
       [] { return double(LatencyProfiler::Options::FromEnv().target_ppm); },
       999'999},
  };
  for (const Case& c : cases) {
    SetEnv(c.name, c.value);
    EXPECT_EQ(c.read(), c.expected) << c.name << "=" << c.value;
    unsetenv(c.name);
  }
}

}  // namespace
}  // namespace hytap
