// The legal counterpart of the planted violation: the entry point hands
// its observers to sim::Observers::begin(), which labels them. Mentions
// in comments and strings ("set_run_info(") are not calls.
#include "sim/observers.h"

void run_probe(renaming::obs::Telemetry* telemetry) {
  renaming::sim::Observers observers{.telemetry = telemetry};
  observers.begin("set_run_info(", 8, 0);
}
