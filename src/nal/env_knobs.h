// Validated parsing for the numeric NALQ_* environment variables.
//
// Two run settings have an environment default, because something outside
// the engine's own API sets them: NALQ_MEMORY_BUDGET_BYTES (CI re-runs every
// suite under a 1 MB budget) and NALQ_STORE_CACHE_BYTES (the benchmark sizes
// the store cache of the process it measures). Every other run setting is a
// parameter or an options field only (src/engine/engine.h,
// src/service/query_service.h). The contract:
//
//   * unset or empty       → 0, which both knobs read as "no limit";
//   * a decimal integer    → its value;
//   * anything else        → engine::Error(kPlanError) carrying the variable
//                            name and the offending text. Read as 0, a
//                            typo'd knob would mean "unlimited budget" — the
//                            most dangerous possible misread — so the first
//                            query that resolves it fails loudly instead.
//
// NALQ_FAULT_SPEC keeps its own parser (fault_injection.cpp) and its own
// deliberate ignore-on-malformed policy: the injector is a test harness, and
// a typo there must never be able to fail production runs.
#ifndef NALQ_NAL_ENV_KNOBS_H_
#define NALQ_NAL_ENV_KNOBS_H_

#include <cstdint>

namespace nalq::nal {

/// Reads environment variable `name` as a non-negative decimal integer.
/// Returns 0 when unset/empty; throws engine::Error(kPlanError) naming the
/// variable and its malformed value otherwise. Reads the environment on
/// every call — callers that want once-per-process semantics cache the
/// result in a function-local static (the existing idiom).
uint64_t EnvKnobU64(const char* name);

}  // namespace nalq::nal

#endif  // NALQ_NAL_ENV_KNOBS_H_
