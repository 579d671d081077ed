#include "nal/env_knobs.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "engine/error.h"

namespace nalq::nal {

uint64_t EnvKnobU64(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return 0;
  // strtoull accepts leading whitespace, a sign, and hex prefixes, and it
  // wraps negatives; a knob wants none of that — digits only, fully
  // consumed.
  for (const char* p = s; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) {
      throw engine::Error(
          engine::ErrorCode::kPlanError,
          std::string("malformed environment knob ") + name + "=\"" + s +
              "\" (expected a non-negative decimal integer)",
          0, {}, "env_knobs");
    }
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    throw engine::Error(
        engine::ErrorCode::kPlanError,
        std::string("malformed environment knob ") + name + "=\"" + s +
            "\" (out of range for a 64-bit value)",
        0, {}, "env_knobs");
  }
  return static_cast<uint64_t>(v);
}

}  // namespace nalq::nal
