// The sanctioned home of the run-info labelling.
#pragma once

#include <string>

#include "obs/telemetry.h"

namespace renaming::sim {

struct Observers {
  obs::Telemetry* telemetry = nullptr;

  void begin(const std::string& algorithm, unsigned n, unsigned f) const {
    if (telemetry != nullptr) telemetry->set_run_info(algorithm, n, f);
  }
};

}  // namespace renaming::sim
