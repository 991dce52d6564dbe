#pragma once
namespace sim {
using MsgKind = unsigned short;
}  // namespace sim
namespace sim::wire {
struct WireSchema { MsgKind kind; const char* name; };
inline constexpr WireSchema kWireSchemas[] = {
    {1, "PING"},
    {2, "PONG"},
    {7, "GHOST"},  // no Tag enumerator or constexpr MsgKind declares kind 7
};
}  // namespace sim::wire
