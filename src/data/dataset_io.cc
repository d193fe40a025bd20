#include "data/dataset_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "vec/vector.h"

namespace hyperm::data {
namespace {

constexpr char kMagic[8] = {'H', 'Y', 'P', 'E', 'R', 'M', 'D', '1'};

// Reads one whole CSV field as a `T`: leading and trailing whitespace is
// allowed, anything else after the number ("0.5abc", "2x") is not.
template <typename T>
bool ParseField(const std::string& field, T* value) {
  std::istringstream parse(field);
  if (!(parse >> *value)) return false;
  parse >> std::ws;
  return parse.eof();
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return UnavailableError("WriteCsv: cannot open " + path);
  out.precision(17);
  const bool labeled = dataset.has_labels();
  for (size_t i = 0; i < dataset.items.size(); ++i) {
    out << (labeled ? dataset.labels[i] : -1);
    for (double v : dataset.items[i]) out << ',' << v;
    out << '\n';
  }
  out.flush();
  if (!out) return UnavailableError("WriteCsv: write failed for " + path);
  return OkStatus();
}

Result<Dataset> ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return UnavailableError("ReadCsv: cannot open " + path);
  Dataset dataset;
  std::string line;
  size_t expected_dim = 0;
  bool any_label = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string field;
    if (!std::getline(fields, field, ',')) {
      return InvalidArgumentError("ReadCsv: empty record");
    }
    int label = 0;
    Vector item;
    if (!ParseField(field, &label)) {
      return InvalidArgumentError("ReadCsv: bad label: " + field);
    }
    while (std::getline(fields, field, ',')) {
      double v = 0.0;
      if (!ParseField(field, &v)) return InvalidArgumentError("ReadCsv: bad value: " + field);
      item.push_back(v);
    }
    if (item.empty()) return InvalidArgumentError("ReadCsv: record without values");
    if (expected_dim == 0) {
      expected_dim = item.size();
    } else if (item.size() != expected_dim) {
      return InvalidArgumentError("ReadCsv: inconsistent dimensionality");
    }
    any_label = any_label || label >= 0;
    dataset.items.push_back(std::move(item));
    dataset.labels.push_back(label);
  }
  if (!any_label) dataset.labels.clear();
  return dataset;
}

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return UnavailableError("WriteBinary: cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  const uint64_t count = dataset.items.size();
  const uint64_t dim = dataset.dim();
  const uint8_t labeled = dataset.has_labels() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&labeled), sizeof(labeled));
  for (const Vector& item : dataset.items) {
    HM_CHECK_EQ(item.size(), dim);
    out.write(reinterpret_cast<const char*>(item.data()),
              static_cast<std::streamsize>(dim * sizeof(double)));
  }
  if (labeled != 0) {
    for (int label : dataset.labels) {
      const int32_t v = label;
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
  out.flush();
  if (!out) return UnavailableError("WriteBinary: write failed for " + path);
  return OkStatus();
}

Result<Dataset> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return UnavailableError("ReadBinary: cannot open " + path);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("ReadBinary: bad magic (not an HMD file)");
  }
  uint64_t count = 0, dim = 0;
  uint8_t labeled = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  in.read(reinterpret_cast<char*>(&labeled), sizeof(labeled));
  if (!in) return InvalidArgumentError("ReadBinary: truncated header");
  if (labeled > 1) return InvalidArgumentError("ReadBinary: bad labeled flag");
  // Sanity bounds to refuse corrupted headers before allocating.
  constexpr uint64_t kMaxReasonable = uint64_t{1} << 32;
  if (count > kMaxReasonable || dim == 0 || dim > kMaxReasonable) {
    return InvalidArgumentError("ReadBinary: implausible header counts");
  }
  // The payload must fill exactly what is left of the file. Checking first
  // keeps a corrupt count from reaching reserve() as a huge allocation, and
  // a count corrupted downward from loading a silently truncated dataset.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const uint64_t remaining = static_cast<uint64_t>(in.tellg() - header_end);
  in.seekg(header_end);
  const uint64_t bytes_per_item = dim * sizeof(double) + (labeled != 0 ? sizeof(int32_t) : 0);
  if (count > remaining / bytes_per_item) {
    return InvalidArgumentError("ReadBinary: header counts exceed the file size");
  }
  if (count * bytes_per_item != remaining) {
    return InvalidArgumentError("ReadBinary: trailing bytes after the payload");
  }
  Dataset dataset;
  dataset.items.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Vector item(dim);
    in.read(reinterpret_cast<char*>(item.data()),
            static_cast<std::streamsize>(dim * sizeof(double)));
    if (!in) return InvalidArgumentError("ReadBinary: truncated items");
    if (!vec::AllFinite(item)) {
      return InvalidArgumentError("ReadBinary: non-finite feature value");
    }
    dataset.items.push_back(std::move(item));
  }
  if (labeled != 0) {
    dataset.labels.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      int32_t v = 0;
      in.read(reinterpret_cast<char*>(&v), sizeof(v));
      if (!in) return InvalidArgumentError("ReadBinary: truncated labels");
      dataset.labels.push_back(v);
    }
  }
  return dataset;
}

}  // namespace hyperm::data
