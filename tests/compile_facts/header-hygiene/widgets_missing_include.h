// Names std::vector without including <vector>: compiles only where an
// earlier include happened to pull it in.
#pragma once

inline std::vector<int> widgets() { return {}; }
