// R15 guards the obs artifact codecs only: byte-level stream I/O outside
// src/obs/ is some other layer's business and stays clean.
#include <ostream>

void dump_byte(std::ostream& out, char c) { out.put(c); }
