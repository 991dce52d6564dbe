// Peak resident set of this process, the one reader shared by the
// heartbeat (obs/progress.cc) and the bench harnesses (bench/bench_util.h).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

namespace renaming::obs {

/// Resident-set high-water mark in bytes. On Linux this is VmHWM from
/// /proc/self/status (reported in KiB), which writing `5` to
/// /proc/self/clear_refs resets, so a caller that resets it before a cell
/// reads that cell's peak. Where /proc is absent it falls back to
/// getrusage's ru_maxrss (KiB on Linux), which also keeps the peak of the
/// image the process was exec'd from — a fork of a large launcher reads
/// the launcher's size. Returns 0 where neither is available.
inline std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      status >> kib;
      if (kib > 0) return kib * 1024;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss < 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace renaming::obs
