#pragma once
#include "sim/wire_schema.h"
enum class Tag : sim::MsgKind {
  kPing = 1,
  kPong = 2,
};
