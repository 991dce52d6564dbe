// The legal counterpart of the planted violation: the entry point hands
// its observers to sim::Observers::begin(), which folds and labels them.
// Mentions in comments and strings ("set_run_info(", kTelemetryEnabled)
// are not references.
#include "sim/observers.h"

void run_probe(renaming::obs::Telemetry* telemetry) {
  renaming::sim::Observers observers{.telemetry = telemetry};
  observers.begin("set_run_info(kTelemetryEnabled)", 8, 0);
}
