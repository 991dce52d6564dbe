// R11 kind coverage, clean twin: a message-kind row keyed by its Kind
// enumerator, the kind's one numbered declaration.
#include "obs/phase.h"
#include "sim/wire_schema.h"

namespace renaming::sim::wire {

inline constexpr WireSchema kRow = {
    Kind::kNaiveId, "NAIVE_ID", false, obs::PhaseId::kBaselineExchange, 1,
    {{"id", Width::kLogNamespace}}};

}  // namespace renaming::sim::wire
