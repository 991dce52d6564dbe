// The obs layer defines the run-info setters, so it may name them.
#pragma once

#include <string>
#include <utility>

namespace renaming::obs {

class Telemetry {
 public:
  void set_run_info(std::string algorithm, unsigned n, unsigned f) {
    algorithm_ = std::move(algorithm);
    n_ = n;
    f_ = f;
  }

 private:
  std::string algorithm_;
  unsigned n_ = 0;
  unsigned f_ = 0;
};

}  // namespace renaming::obs
