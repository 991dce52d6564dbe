// The legal counterpart of the planted violation: the artifact writer goes
// through binio::Writer, text exporters may stream with <<, and .get() on
// a non-stream (a unique_ptr) is not byte I/O.
#include <cstdint>
#include <memory>
#include <ostream>

#include "obs/binio.h"

struct Record {
  std::uint32_t round = 0;
};

void write_record(std::ostream& out, const std::unique_ptr<Record>& record) {
  binio::Writer w(out);
  w.u32(record.get()->round);
}

void write_record_jsonl(std::ostream& out, const Record& record) {
  out << "{\"round\":" << record.round << "}\n";
}
