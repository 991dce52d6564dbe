#pragma once
namespace sim {
using MsgKind = unsigned short;
}  // namespace sim
namespace sim::wire {
enum class Kind : MsgKind {
  kPing = 1,
  kPong = 2,
};
}  // namespace sim::wire
