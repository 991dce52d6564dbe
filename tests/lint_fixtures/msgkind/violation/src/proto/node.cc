#include "sim/wire_schema.h"
// Kind::kPong appears only in this comment and in a string below.
int dispatch(sim::MsgKind kind) {
  if (kind == static_cast<sim::MsgKind>(sim::wire::Kind::kPing)) return 1;
  return kind == 2 ? sizeof("Kind::kPong") : 0;
}
