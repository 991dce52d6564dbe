// R16 run info, planted violation: a run entry point labelling its
// observers by hand. set_run_info is private, reachable only from
// sim::Observers::begin(), so the call does not compile.
#include "obs/journal.h"
#include "obs/telemetry.h"

namespace renaming::baselines {

void run_probe(obs::Telemetry* telemetry, obs::Journal* journal) {
  if (telemetry != nullptr) telemetry->set_run_info("probe", 8, 0);
  if (journal != nullptr) journal->set_run_info("probe", 8, 0);
}

}  // namespace renaming::baselines
