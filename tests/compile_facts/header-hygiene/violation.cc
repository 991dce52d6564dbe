// R5 header hygiene, planted violation: a header missing an include fails
// when it is the first and only include of a TU — which is how the
// renaming_header_check library compiles every src/ header.
#include "widgets_missing_include.h"
