// Always-on invariant checking.
//
// The paper's value proposition is *measured* bit/message complexity, and a
// silently-corrupted simulator invalidates every number downstream. The
// default build is RelWithDebInfo, where NDEBUG erases assert(); invariants
// guarded by assert() therefore never ran in the builds that produce
// EXPERIMENTS.md. RENAMING_CHECK closes that hole: it is evaluated in every
// build type, timing builds included (see docs/TOOLING.md for the policy).
//
// Usage:
//   RENAMING_CHECK(i < size());
//   RENAMING_CHECK(msg.bits > 0, "every message must declare a wire size");
//
// The macro is usable inside constexpr functions: a failing check during
// constant evaluation is a compile error (the failure branch calls a
// non-constexpr function), and a failing check at runtime prints the
// condition, location and optional message, then aborts.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace renaming::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  // The abort path is the one sanctioned terminal writer in src/: there is
  // no sink left to report through when an invariant is already broken.
  std::fprintf(stderr, "RENAMING_CHECK failed: %s\n  at %s:%d\n",  // lint:allow(raw-output)
               expr, file, line);
  if (msg != nullptr && msg[0] != '\0') {
    std::fprintf(stderr, "  %s\n", msg);  // lint:allow(raw-output)
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace renaming::detail

#define RENAMING_CHECK(cond, ...)                                  \
  ((cond) ? static_cast<void>(0)                                   \
          : ::renaming::detail::check_failed(#cond, __FILE__, __LINE__, \
                                             "" __VA_ARGS__))
