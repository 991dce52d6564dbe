// The clean twin of widgets_missing_include.h: names std::vector and
// includes <vector>.
#pragma once

#include <vector>

inline std::vector<int> widgets() { return {}; }
