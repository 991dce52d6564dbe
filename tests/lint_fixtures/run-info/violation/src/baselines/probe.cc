// Planted R16 violation: a run entry point that labels its observers by
// hand instead of going through sim::Observers. Both set_run_info() calls
// must be flagged.
#include "obs/telemetry.h"

void run_probe(renaming::obs::Telemetry* telemetry,
               renaming::obs::Journal* journal) {
  if (telemetry != nullptr) telemetry->set_run_info("probe", 8, 0);
  if (journal != nullptr) journal->set_run_info("probe", 8, 0);
}
