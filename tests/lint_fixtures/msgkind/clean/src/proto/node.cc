#include "sim/wire_schema.h"
// Comments and strings naming "Kind::kGhost" are not references.
int dispatch(sim::MsgKind kind) {
  if (kind == static_cast<sim::MsgKind>(sim::wire::Kind::kPing)) return 1;
  if (kind == static_cast<sim::MsgKind>(sim::wire::Kind::kPong)) return 2;
  return 0;
}
