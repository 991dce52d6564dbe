// Planted R16 violation: a run entry point that folds its own telemetry
// pointer and labels its observers by hand instead of going through
// sim::Observers. Both the kTelemetryEnabled reference and the
// set_run_info() calls must be flagged.
#include "obs/telemetry.h"

void run_probe(renaming::obs::Telemetry* telemetry,
               renaming::obs::Journal* journal) {
  renaming::obs::Telemetry* const tel =
      renaming::obs::kTelemetryEnabled ? telemetry : nullptr;
  if (tel != nullptr) tel->set_run_info("probe", 8, 0);
  if (journal != nullptr) journal->set_run_info("probe", 8, 0);
}
