// R16 run info, clean twin: a run entry point labels its observers through
// sim::Observers::begin().
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "sim/observers.h"

namespace renaming::baselines {

void run_probe(obs::Telemetry* telemetry, obs::Journal* journal) {
  const sim::Observers observers{.telemetry = telemetry, .journal = journal};
  observers.begin("probe", 8, 0);
}

}  // namespace renaming::baselines
