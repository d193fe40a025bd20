// Dataset persistence.
//
// Two formats:
//  * CSV  — one item per line, `label,v0,v1,...` (label -1 when absent);
//    interoperable with external tooling and easy to inspect.
//  * HMD  — a little-endian binary format ("HYPERMD1" magic, counts, raw
//    doubles) for fast reload of large generated datasets so experiment
//    sweeps can share one corpus.

#ifndef HYPERM_DATA_DATASET_IO_H_
#define HYPERM_DATA_DATASET_IO_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace hyperm::data {

/// Writes `dataset` as CSV. Returns Unavailable on I/O failure.
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a CSV written by WriteCsv (or compatible). Lines must share one
/// dimensionality; returns InvalidArgument on malformed input.
Result<Dataset> ReadCsv(const std::string& path);

/// Writes `dataset` in the binary HMD format.
Status WriteBinary(const Dataset& dataset, const std::string& path);

/// Reads an HMD file; validates the magic and structural invariants (a 0/1
/// labeled flag, a payload that fills the file exactly, finite values).
Result<Dataset> ReadBinary(const std::string& path);

}  // namespace hyperm::data

#endif  // HYPERM_DATA_DATASET_IO_H_
