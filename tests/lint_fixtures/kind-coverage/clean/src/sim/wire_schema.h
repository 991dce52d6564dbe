#pragma once
namespace sim {
using MsgKind = unsigned short;
}  // namespace sim
namespace sim::wire {
struct WireSchema { MsgKind kind; const char* name; };
// Every row's kind has a Tag declaration.
inline constexpr WireSchema kWireSchemas[] = {
    {1, "PING"},
    {2, "PONG"},
};
}  // namespace sim::wire
