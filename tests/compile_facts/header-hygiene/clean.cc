// R5 header hygiene, clean twin: a self-contained header compiles as the
// first and only include of a TU, as every src/ header does in the
// renaming_header_check library.
#include "widgets.h"
