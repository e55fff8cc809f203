#include "doduo/nn/serialize.h"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "doduo/nn/quant.h"
#include "doduo/util/metrics.h"
#include "doduo/util/mmap_file.h"

namespace doduo::nn {

// --- checkpoint format (DESIGN §14) ----------------------------------------
//
// Fixed-size little-endian header + table of contents, then 64-byte-aligned
// tensor sections. Every field a loader dereferences is validated against
// the fstat-reported file size *before* any allocation or access, so a
// truncated or corrupt file fails with a Status instead of a fault; the
// payload itself is never parsed — fp32 tensors borrow the mapping in
// place, which is what makes cold start O(page faults) and lets N workers
// share one physical copy.

namespace {

constexpr uint32_t kMagic = 0x444F4455;  // "DODU"
constexpr uint32_t kVersion = 2;

// The loader aliases the mapped bytes directly, which only works on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "doduo checkpoints assume a little-endian host");

// Plausibility caps for checkpoint headers. A corrupt or truncated file can
// present arbitrary 64-bit counts and extents; these bound them before any
// buffer is sized.
constexpr uint64_t kMaxParameters = 1u << 20;
constexpr int64_t kMaxElements = int64_t{1} << 31;

constexpr uint64_t kAlign = 64;
constexpr uint64_t kNameBytes = 64;  // NUL-terminated, so max length 63
constexpr uint32_t kMaxDims = 4;
constexpr uint8_t kDtypeF32 = 0;
constexpr uint8_t kDtypeI8 = 1;

struct Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t param_count = 0;
  uint64_t file_size = 0;   // must equal the on-disk size (truncation check)
  uint64_t toc_offset = 0;  // always 64 today, but recorded for evolution
  uint64_t toc_size = 0;    // param_count * sizeof(TocEntry)
  uint8_t reserved[24] = {};
};
static_assert(sizeof(Header) == 64);

struct TocEntry {
  char name[kNameBytes] = {};
  uint8_t dtype = 0;
  uint8_t ndim = 0;
  uint16_t reserved0 = 0;
  uint32_t reserved1 = 0;
  uint64_t dims[kMaxDims] = {};  // logical fp32 extents; unused are 0
  uint64_t data_offset = 0;      // 64-aligned section start
  uint64_t data_bytes = 0;
  uint64_t scale_offset = 0;     // i8 only: fp32 scale table, 64-aligned
  uint64_t scale_bytes = 0;
};
static_assert(sizeof(TocEntry) == 136);

// Cold-start observability (DESIGN §14): how many checkpoint bytes each
// load path touched. Mapped bytes cost page faults on first access; copied
// bytes (the DODUO_MMAP=0 heap read) cost read+allocate up front.
util::Counter* BytesMappedCounter() {
  static util::Counter* counter = util::GetCounter("load.bytes_mapped");
  return counter;
}

util::Counter* BytesCopiedCounter() {
  static util::Counter* counter = util::GetCounter("load.bytes_copied");
  return counter;
}

bool SameExtents(const std::vector<int64_t>& shape, const Tensor& value) {
  if (static_cast<int>(shape.size()) != value.ndim()) return false;
  for (int i = 0; i < value.ndim(); ++i) {
    if (shape[static_cast<size_t>(i)] != value.dim(i)) return false;
  }
  return true;
}

uint64_t AlignUp64(uint64_t value) {
  return (value + (kAlign - 1)) & ~(kAlign - 1);
}

// Int8 storage eligibility: exactly the Linear weight matrices (embedding
// tables end in ".table", biases and LayerNorm params are 1-D).
bool QuantEligible(const Parameter& p) {
  return p.value.ndim() == 2 && p.name.ends_with(".w");
}

util::Status WriteZeroPadding(std::ofstream& out, uint64_t count) {
  static const char zeros[kAlign] = {};
  while (count > 0) {
    const uint64_t chunk = count < kAlign ? count : kAlign;
    out.write(zeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
  if (!out) return util::Status::IoError("failed writing padding");
  return util::Status::Ok();
}

// Writes a laid-out checkpoint (header, TOC, sections) to `path`.
util::Status WriteCheckpoint(const std::string& path, const Header& header,
                             const std::vector<TocEntry>& toc,
                             const std::vector<QuantizedWeight>& quantized,
                             const ParameterList& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::IoError("cannot open " + path);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const TocEntry& entry : toc) {
    out.write(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  uint64_t written = sizeof(Header) + header.toc_size;
  for (size_t i = 0; i < params.size(); ++i) {
    const TocEntry& entry = toc[i];
    if (util::Status pad = WriteZeroPadding(out, entry.data_offset - written);
        !pad.ok()) {
      return pad;
    }
    if (entry.dtype == kDtypeI8) {
      const QuantizedWeight& qw = quantized[i];
      out.write(reinterpret_cast<const char*>(qw.q.data()),
                static_cast<std::streamsize>(qw.q.size()));
      written = entry.data_offset + entry.data_bytes;
      if (util::Status pad = WriteZeroPadding(out, entry.scale_offset - written);
          !pad.ok()) {
        return pad;
      }
      out.write(reinterpret_cast<const char*>(qw.scale.data()),
                static_cast<std::streamsize>(entry.scale_bytes));
      written = entry.scale_offset + entry.scale_bytes;
    } else {
      out.write(
          reinterpret_cast<const char*>(
              std::as_const(params[i]->value).data()),
          static_cast<std::streamsize>(entry.data_bytes));
      written = entry.data_offset + entry.data_bytes;
    }
  }
  if (util::Status pad = WriteZeroPadding(out, header.file_size - written);
      !pad.ok()) {
    return pad;
  }
  out.close();
  if (!out) return util::Status::IoError("failed writing " + path);
  return util::Status::Ok();
}

}  // namespace

util::Status SaveParameters(const std::string& path,
                            const ParameterList& params,
                            const SaveOptions& options) {
  // Lay out the file first: header, TOC, then per-parameter sections in
  // list order, each 64-aligned.
  std::vector<TocEntry> toc(params.size());
  std::vector<QuantizedWeight> quantized(params.size());
  uint64_t cursor =
      AlignUp64(sizeof(Header) + params.size() * sizeof(TocEntry));
  for (size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    TocEntry& entry = toc[i];
    if (p->name.empty() || p->name.size() >= kNameBytes) {
      return util::Status::InvalidArgument(
          "parameter name does not fit the v2 name field: '" + p->name + "'");
    }
    if (p->value.ndim() < 1 || p->value.ndim() > static_cast<int>(kMaxDims)) {
      return util::Status::InvalidArgument(
          "v2 checkpoints support 1-4 dims, got " + p->value.ShapeString() +
          " for '" + p->name + "'");
    }
    std::memcpy(entry.name, p->name.data(), p->name.size());
    entry.ndim = static_cast<uint8_t>(p->value.ndim());
    for (int d = 0; d < p->value.ndim(); ++d) {
      entry.dims[d] = static_cast<uint64_t>(p->value.dim(d));
    }
    const uint64_t volume = static_cast<uint64_t>(p->value.size());
    if (options.quant_int8 && QuantEligible(*p)) {
      QuantizeWeight(p->value, &quantized[i]);
      entry.dtype = kDtypeI8;
      entry.data_offset = cursor;
      entry.data_bytes = volume;  // one byte per element, transposed
      cursor = AlignUp64(cursor + entry.data_bytes);
      entry.scale_offset = cursor;
      entry.scale_bytes =
          static_cast<uint64_t>(quantized[i].out) * sizeof(float);
      cursor = AlignUp64(cursor + entry.scale_bytes);
    } else {
      entry.dtype = kDtypeF32;
      entry.data_offset = cursor;
      entry.data_bytes = volume * sizeof(float);
      cursor = AlignUp64(cursor + entry.data_bytes);
    }
  }
  Header header;
  header.magic = kMagic;
  header.version = kVersion;
  header.param_count = params.size();
  header.file_size = cursor;
  header.toc_offset = sizeof(Header);
  header.toc_size = params.size() * sizeof(TocEntry);

  // Write beside `path`, then rename over it. `params` may borrow a mapping
  // of `path` itself (re-saving a loaded model in place), and other
  // processes may have it mapped too: truncating it would pull the weights
  // out from under both. The rename leaves existing mappings on the old
  // file, and a failed save leaves `path` untouched.
  const std::string tmp = path + ".tmp";
  util::Status status = WriteCheckpoint(tmp, header, toc, quantized, params);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = util::Status::IoError("cannot rename " + tmp + " to " + path +
                                   ": " + std::strerror(errno));
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

namespace {

// One validated TOC entry, still pointing into the mapping.
struct ParsedEntry {
  TocEntry entry;
  std::vector<int64_t> shape;
  bool used = false;
};

util::Status Corrupt(const std::string& path, const std::string& what) {
  return util::Status::InvalidArgument("corrupt v2 checkpoint " + path +
                                       ": " + what);
}

}  // namespace

util::Status LoadParameters(const std::string& path,
                            const ParameterList& params) {
  auto opened = util::MmapFile::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<util::MmapFile> file = opened.value();
  const uint8_t* base = file->data();
  const uint64_t size = file->size();

  // Header: every downstream extent is checked against `size` (from fstat,
  // the only trusted length) before it is dereferenced. Magic and version
  // come first, so a checkpoint in a retired format is named as such.
  uint32_t magic_and_version[2] = {};
  if (size >= sizeof(magic_and_version)) {
    std::memcpy(magic_and_version, base, sizeof(magic_and_version));
  }
  if (magic_and_version[0] != kMagic) {
    return util::Status::InvalidArgument(path + " is not a doduo checkpoint");
  }
  const uint32_t version = magic_and_version[1];
  if (version == 1) {
    return util::Status::InvalidArgument(
        path + ": checkpoint version 1 is no longer supported; convert it "
               "with doduo_convert from a doduo release that still reads it");
  }
  if (version != kVersion) {
    return util::Status::InvalidArgument(
        path + ": unsupported checkpoint version " + std::to_string(version));
  }
  if (size < sizeof(Header)) {
    return Corrupt(path, "file smaller than the header");
  }
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (header.param_count > kMaxParameters) {
    return Corrupt(path, "implausible parameter count " +
                             std::to_string(header.param_count));
  }
  if (header.file_size != size) {
    return Corrupt(path, "recorded size " + std::to_string(header.file_size) +
                             " != actual size " + std::to_string(size));
  }
  if (header.toc_offset != sizeof(Header)) {
    return Corrupt(path, "unexpected TOC offset");
  }
  if (header.toc_size != header.param_count * sizeof(TocEntry)) {
    return Corrupt(path, "TOC size does not match parameter count");
  }
  if (header.toc_offset + header.toc_size > size) {
    return Corrupt(path, "TOC extends past end of file");
  }

  // TOC: validate names, shapes, and byte extents; index by name.
  std::map<std::string, ParsedEntry> entries;
  for (uint64_t e = 0; e < header.param_count; ++e) {
    ParsedEntry parsed;
    std::memcpy(&parsed.entry, base + header.toc_offset + e * sizeof(TocEntry),
                sizeof(TocEntry));
    const TocEntry& entry = parsed.entry;
    const std::string where = " (entry " + std::to_string(e) + ")";
    const void* nul = std::memchr(entry.name, '\0', kNameBytes);
    if (nul == nullptr || nul == entry.name) {
      return Corrupt(path, "bad parameter name" + where);
    }
    const std::string name(entry.name);
    if (entry.dtype != kDtypeF32 && entry.dtype != kDtypeI8) {
      return Corrupt(path, "unknown dtype for '" + name + "'" + where);
    }
    if (entry.ndim < 1 || entry.ndim > kMaxDims) {
      return Corrupt(path, "bad rank for '" + name + "'" + where);
    }
    int64_t volume = 1;
    for (uint32_t d = 0; d < kMaxDims; ++d) {
      const uint64_t extent = entry.dims[d];
      if (d >= entry.ndim) {
        if (extent != 0) {
          return Corrupt(path, "nonzero unused dim for '" + name + "'" +
                                   where);
        }
        continue;
      }
      if (extent == 0 || extent > static_cast<uint64_t>(kMaxElements) ||
          volume > kMaxElements / static_cast<int64_t>(extent)) {
        return Corrupt(path, "bad shape for '" + name + "'" + where);
      }
      parsed.shape.push_back(static_cast<int64_t>(extent));
      volume *= static_cast<int64_t>(extent);
    }
    // Section extents: aligned, in-bounds, and exactly the size the shape
    // implies. All arithmetic stays in uint64 with the subtraction form of
    // the bound check, so a huge offset cannot wrap.
    if (entry.data_offset % kAlign != 0 || entry.data_offset > size ||
        entry.data_bytes > size - entry.data_offset) {
      return Corrupt(path, "data section out of bounds for '" + name + "'" +
                               where);
    }
    if (entry.dtype == kDtypeF32) {
      if (entry.data_bytes != static_cast<uint64_t>(volume) * sizeof(float)) {
        return Corrupt(path, "data size mismatch for '" + name + "'" + where);
      }
      if (entry.scale_offset != 0 || entry.scale_bytes != 0) {
        return Corrupt(path, "fp32 entry with scale table for '" + name +
                                 "'" + where);
      }
    } else {
      if (entry.ndim != 2) {
        return Corrupt(path, "int8 entry must be 2-D for '" + name + "'" +
                                 where);
      }
      if (entry.data_bytes != static_cast<uint64_t>(volume)) {
        return Corrupt(path, "data size mismatch for '" + name + "'" + where);
      }
      const uint64_t out_channels = entry.dims[1];
      if (entry.scale_offset % kAlign != 0 || entry.scale_offset > size ||
          entry.scale_bytes > size - entry.scale_offset ||
          entry.scale_bytes != out_channels * sizeof(float)) {
        return Corrupt(path, "scale table out of bounds for '" + name + "'" +
                                 where);
      }
    }
    if (!entries.emplace(name, std::move(parsed)).second) {
      return Corrupt(path, "duplicate parameter '" + name + "'" + where);
    }
  }

  // Match against the model: names must match 1:1.
  for (Parameter* p : params) {
    auto it = entries.find(p->name);
    if (it == entries.end()) {
      return util::Status::InvalidArgument(
          "parameter name mismatch: model '" + p->name +
          "' not found in checkpoint");
    }
    ParsedEntry& parsed = it->second;
    if (!SameExtents(parsed.shape, p->value)) {
      return util::Status::InvalidArgument("shape mismatch for " + p->name);
    }
    const TocEntry& entry = parsed.entry;
    if (entry.dtype == kDtypeF32) {
      // Zero-copy: the tensor aliases the mapping, pinned by `file`.
      p->value = Tensor::Borrowed(
          parsed.shape,
          reinterpret_cast<const float*>(base + entry.data_offset), file);
      p->BumpRevision();
    } else {
      // Int8: dequantize an owned fp32 value (SnapshotWeights and the fp32
      // fallback path read it), and attach the mapped scales plus GEMM
      // panels packed once here for the DODUO_QUANT fast path; replicas
      // share this one PrequantizedWeight.
      const int64_t in = parsed.shape[0];
      const int64_t out_channels = parsed.shape[1];
      const int8_t* q =
          reinterpret_cast<const int8_t*>(base + entry.data_offset);
      const float* scale =
          reinterpret_cast<const float*>(base + entry.scale_offset);
      if (p->value.borrowed()) p->value = Tensor(parsed.shape);
      float* w = p->value.data();
      for (int64_t j = 0; j < out_channels; ++j) {
        const float s = scale[j];
        const int8_t* qrow = q + j * in;
        for (int64_t i = 0; i < in; ++i) {
          w[i * out_channels + j] = s * static_cast<float>(qrow[i]);
        }
      }
      p->BumpRevision();
      auto prequant = std::make_shared<PrequantizedWeight>();
      prequant->scale = scale;
      PackInt8Panels(q, out_channels, in, &prequant->panels);
      prequant->out = out_channels;
      prequant->in = in;
      prequant->keepalive = file;
      p->AttachPrequant(std::move(prequant));
    }
    parsed.used = true;
  }
  for (const auto& [name, parsed] : entries) {
    if (!parsed.used) {
      return util::Status::InvalidArgument(
          "checkpoint parameter '" + name +
          "' has no matching model parameter");
    }
  }
  (file->mapped() ? BytesMappedCounter() : BytesCopiedCounter())
      ->Increment(size);
  return util::Status::Ok();
}

}  // namespace doduo::nn
