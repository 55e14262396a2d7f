// Instrumentation hook macros and the PRISM_OBS compile-time kill switch.
//
// Hook sites throughout the engine and IS core use these macros, never the
// obs classes directly, so a -DPRISM_OBS=OFF build compiles every probe to
// nothing: zero instructions, zero data, bit-identical simulation results
// (the probes never touch model state either way — see
// tests/test_obs_determinism.cpp).
//
// Each macro caches its Registry lookup in a function-local static, so a hot
// call site pays the name lookup once and then one relaxed atomic per hit.
// Span macros additionally gate on the tracer's runtime enable flag.
//
// PRISM_OBS_ENABLED is defined globally by CMake (option PRISM_OBS, default
// ON); the fallback below covers out-of-tree inclusion.
#pragma once

#ifndef PRISM_OBS_ENABLED
#define PRISM_OBS_ENABLED 1
#endif

namespace prism::obs {
/// True when this build carries the observability layer.
constexpr bool compiled_in() { return PRISM_OBS_ENABLED != 0; }
}  // namespace prism::obs

#if PRISM_OBS_ENABLED

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define PRISM_OBS_CONCAT_(a, b) a##b
#define PRISM_OBS_CONCAT(a, b) PRISM_OBS_CONCAT_(a, b)

/// Increments counter `name` by 1.
#define PRISM_OBS_COUNT(name) PRISM_OBS_COUNT_N(name, 1)

/// Increments counter `name` by `n`.
#define PRISM_OBS_COUNT_N(name, n)                                     \
  do {                                                                 \
    static ::prism::obs::Counter& prism_obs_c_ =                       \
        ::prism::obs::Registry::instance().counter(name);              \
    prism_obs_c_.add(static_cast<std::uint64_t>(n));                   \
  } while (0)

/// Sets gauge `name` to `v`.
#define PRISM_OBS_GAUGE_SET(name, v)                                   \
  do {                                                                 \
    static ::prism::obs::Gauge& prism_obs_g_ =                         \
        ::prism::obs::Registry::instance().gauge(name);                \
    prism_obs_g_.set(static_cast<std::int64_t>(v));                    \
  } while (0)

/// Adds `d` (may be negative) to gauge `name`.
#define PRISM_OBS_GAUGE_ADD(name, d)                                   \
  do {                                                                 \
    static ::prism::obs::Gauge& prism_obs_g_ =                         \
        ::prism::obs::Registry::instance().gauge(name);                \
    prism_obs_g_.add(static_cast<std::int64_t>(d));                    \
  } while (0)

/// Records `v` into histogram `name` (default latency-ns bounds).
#define PRISM_OBS_HIST(name, v)                                        \
  do {                                                                 \
    static ::prism::obs::Histogram& prism_obs_h_ =                     \
        ::prism::obs::Registry::instance().histogram(name);            \
    prism_obs_h_.record(static_cast<double>(v));                       \
  } while (0)

/// Records `v` into histogram `name` with explicit `bounds` (a
/// std::vector<double> expression, evaluated once at registration).
#define PRISM_OBS_HIST_B(name, bounds, v)                              \
  do {                                                                 \
    static ::prism::obs::Histogram& prism_obs_h_ =                     \
        ::prism::obs::Registry::instance().histogram(name, bounds);    \
    prism_obs_h_.record(static_cast<double>(v));                       \
  } while (0)

/// Records the non-decreasing series `value(1..n)` into histogram `name`
/// (Histogram::record_series) with explicit `bounds`.
#define PRISM_OBS_HIST_SERIES_B(name, bounds, n, value)               \
  do {                                                                 \
    static ::prism::obs::Histogram& prism_obs_h_ =                     \
        ::prism::obs::Registry::instance().histogram(name, bounds);    \
    prism_obs_h_.record_series(n, value);                              \
  } while (0)

/// RAII span covering the rest of the enclosing scope.
#define PRISM_OBS_SPAN(name, cat)                                      \
  ::prism::obs::SpanScope PRISM_OBS_CONCAT(prism_obs_span_, __LINE__)( \
      name, cat)

/// Explicit span begin/end and instant marks.
#define PRISM_OBS_BEGIN(name, cat) ::prism::obs::Tracer::instance().begin(name, cat)
#define PRISM_OBS_END(name, cat) ::prism::obs::Tracer::instance().end(name, cat)
#define PRISM_OBS_INSTANT(name, cat) \
  ::prism::obs::Tracer::instance().instant(name, cat)

#else  // !PRISM_OBS_ENABLED — every probe vanishes.

#define PRISM_OBS_COUNT(name) ((void)0)
#define PRISM_OBS_COUNT_N(name, n) ((void)0)
#define PRISM_OBS_GAUGE_SET(name, v) ((void)0)
#define PRISM_OBS_GAUGE_ADD(name, d) ((void)0)
#define PRISM_OBS_HIST(name, v) ((void)0)
#define PRISM_OBS_HIST_B(name, bounds, v) ((void)0)
#define PRISM_OBS_HIST_SERIES_B(name, bounds, n, value) ((void)0)
#define PRISM_OBS_SPAN(name, cat) ((void)0)
#define PRISM_OBS_BEGIN(name, cat) ((void)0)
#define PRISM_OBS_END(name, cat) ((void)0)
#define PRISM_OBS_INSTANT(name, cat) ((void)0)

#endif  // PRISM_OBS_ENABLED
