#ifndef HYTAP_COMMON_ENV_H_
#define HYTAP_COMMON_ENV_H_

// Readers for the HYTAP_* environment knobs. One spelling rule for all of
// them: an unset, empty or unparsable value keeps the caller's default.
// Bools accept 0/off/false/no and 1/on/true/yes in any letter case; numbers
// must parse in full ("4abc" and "-1" keep the default for an unsigned knob).
// Range clamps stay with each knob's call site.

#include <cstdint>

namespace hytap {

bool EnvBool(const char* name, bool fallback);
/// Base-10 unsigned integer.
uint64_t EnvU64(const char* name, uint64_t fallback);
/// Finite floating-point value in strtod syntax.
double EnvDouble(const char* name, double fallback);

}  // namespace hytap

#endif  // HYTAP_COMMON_ENV_H_
