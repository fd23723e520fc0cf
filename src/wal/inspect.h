// WAL inspection: walks a segment directory and prints headers, records, and
// CRC status. Shared by tools/wal_inspect and the golden-output test, so the
// format below is part of the repo's test surface — change it and the golden
// file together.
//
// Record payloads are opaque at this layer; callers pass a describer (e.g.
// omni::DescribeWalRecord) to render type names and decoded fields.
#ifndef SRC_WAL_INSPECT_H_
#define SRC_WAL_INSPECT_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "src/wal/env.h"

namespace opx::wal {

struct InspectOptions {
  // Print one line per record (offset, type, length, CRC verdict).
  bool list_records = false;
  // Print a per-record CRC verdict even without list_records output; CRC
  // failures count as problems either way.
  bool verify_crc = false;
};

using RecordDescriber =
    std::function<std::string(uint8_t type, const uint8_t* payload, size_t len)>;

// Scans every segment in `dir`, writing a report to `out`. Returns the number
// of problems found (unparseable headers, chain gaps, CRC failures, torn
// bytes); 0 means the WAL is structurally sound. Zeros after the last record
// of the last segment are its padding (segmented_wal.h), reported but not a
// problem; in a sealed segment they are a torn tail, as recovery treats them.
int DumpWal(Env* env, const std::string& dir, const InspectOptions& options,
            const RecordDescriber& describe, std::ostream& out);

}  // namespace opx::wal

#endif  // SRC_WAL_INSPECT_H_
