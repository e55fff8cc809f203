#include "doduo/nn/serialize.h"

#include <bit>
#include <cstdint>
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

namespace {

constexpr uint32_t kMagic = 0x444F4455;  // "DODU"
constexpr uint32_t kVersion = 1;
constexpr uint32_t kVersionV2 = 2;

// Both formats are little-endian on disk; the v2 loader aliases the mapped
// bytes directly, which only works on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "doduo checkpoints assume a little-endian host");

// Plausibility caps for checkpoint headers. A corrupt or truncated file can
// present arbitrary 64-bit lengths; without these caps a bad name length or
// tensor shape turns into a multi-gigabyte allocation (or std::bad_alloc)
// before the real read fails.
constexpr uint64_t kMaxParameters = 1u << 20;
constexpr uint64_t kMaxNameLength = 4096;
constexpr uint32_t kMaxDims = 8;
constexpr int64_t kMaxElements = int64_t{1} << 31;

void WriteU32(std::ofstream& out, uint32_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU64(std::ofstream& out, uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool ReadU32(std::ifstream& in, uint32_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

bool ReadU64(std::ifstream& in, uint64_t* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

}  // namespace

util::Status SaveParameters(const std::string& path,
                            const ParameterList& params) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::IoError("cannot open " + path);
  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  WriteU64(out, static_cast<uint64_t>(params.size()));
  for (const Parameter* p : params) {
    WriteU64(out, static_cast<uint64_t>(p->name.size()));
    out.write(p->name.data(), static_cast<std::streamsize>(p->name.size()));
    WriteU32(out, static_cast<uint32_t>(p->value.ndim()));
    for (int i = 0; i < p->value.ndim(); ++i) {
      WriteU64(out, static_cast<uint64_t>(p->value.dim(i)));
    }
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!out) return util::Status::IoError("failed writing " + path);
  return util::Status::Ok();
}

namespace {

// One checkpoint entry held in memory while LoadParameters matches it
// against the model. Entries are indexed by name so loading tolerates order
// changes and can re-pack legacy layouts (see the QKV shim below).
struct RawEntry {
  std::vector<int64_t> shape;
  std::vector<float> data;
  bool used = false;
};

// Defined with the rest of the v2 code below; LoadParameters dispatches to
// it when the version field reads 2.
util::Status LoadParametersV2(const std::string& path,
                              const ParameterList& params);

// Cold-start observability (DESIGN §14): how many checkpoint bytes each
// load path touched. Mapped bytes cost page faults on first access; copied
// bytes cost read+allocate up front.
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

// Weight-layout shim: checkpoints written before the packed-QKV attention
// store three [d, d] projections "<attn>.wq.w" / ".wk.w" / ".wv.w" (and
// three [d] biases) where the current model has one "<attn>.wqkv.w" of
// shape [d, 3d] (bias [3d]) with Q/K/V side by side in the columns. When the
// packed name is absent from the checkpoint, gather the three legacy parts
// into the packed layout so pre-refactor checkpoints keep loading.
util::Status LoadPackedQkv(const std::string& packed_name, Parameter* p,
                           std::map<std::string, RawEntry>* entries,
                           bool is_weight) {
  const std::string suffix = is_weight ? ".wqkv.w" : ".wqkv.b";
  const std::string base =
      packed_name.substr(0, packed_name.size() - suffix.size());
  const int64_t d3 = is_weight ? p->value.cols() : p->value.dim(0);
  if (d3 % 3 != 0) {
    return util::Status::InvalidArgument("bad packed shape for " + packed_name);
  }
  const int64_t d = d3 / 3;
  const char* parts[] = {".wq", ".wk", ".wv"};
  for (int part = 0; part < 3; ++part) {
    const std::string legacy =
        base + parts[part] + (is_weight ? ".w" : ".b");
    auto it = entries->find(legacy);
    if (it == entries->end()) {
      return util::Status::InvalidArgument(
          "checkpoint is missing parameter '" + packed_name +
          "' and legacy part '" + legacy + "'");
    }
    RawEntry& entry = it->second;
    const bool shape_ok =
        is_weight ? (entry.shape.size() == 2 && entry.shape[0] == p->value.rows() &&
                     entry.shape[1] == d)
                  : (entry.shape.size() == 1 && entry.shape[0] == d);
    if (!shape_ok) {
      return util::Status::InvalidArgument("shape mismatch for " + legacy);
    }
    if (is_weight) {
      // Scatter the legacy [rows, d] block into columns [part·d, (part+1)·d).
      const int64_t rows = p->value.rows();
      for (int64_t r = 0; r < rows; ++r) {
        float* dst = p->value.row(r) + part * d;
        const float* src = entry.data.data() + r * d;
        for (int64_t c = 0; c < d; ++c) dst[c] = src[c];
      }
    } else {
      float* dst = p->value.data() + part * d;
      for (int64_t c = 0; c < d; ++c) dst[c] = entry.data[static_cast<size_t>(c)];
    }
    entry.used = true;
  }
  return util::Status::Ok();
}

}  // namespace

util::Status LoadParameters(const std::string& path,
                            const ParameterList& params) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return util::Status::IoError("cannot open " + path);
  const int64_t file_size = static_cast<int64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    return util::Status::InvalidArgument(path + " is not a doduo checkpoint");
  }
  if (!ReadU32(in, &version)) {
    return util::Status::IoError("truncated checkpoint " + path);
  }
  if (version == kVersionV2) {
    in.close();
    return LoadParametersV2(path, params);
  }
  if (version != kVersion) {
    return util::Status::InvalidArgument("unsupported checkpoint version");
  }
  if (!ReadU64(in, &count)) {
    return util::Status::IoError("truncated checkpoint " + path);
  }
  if (count > kMaxParameters) {
    return util::Status::InvalidArgument(
        "corrupt checkpoint " + path + ": implausible parameter count " +
        std::to_string(count));
  }
  // Read every entry up front, indexed by name: loading is then insensitive
  // to parameter order and can re-pack legacy layouts.
  std::map<std::string, RawEntry> entries;
  for (uint64_t e = 0; e < count; ++e) {
    const std::string where =
        " (entry " + std::to_string(e) + " of " + std::to_string(count) + ")";
    uint64_t name_len = 0;
    if (!ReadU64(in, &name_len)) {
      return util::Status::IoError("truncated checkpoint " + path + where);
    }
    if (name_len == 0 || name_len > kMaxNameLength) {
      return util::Status::InvalidArgument(
          "corrupt checkpoint " + path + ": implausible name length " +
          std::to_string(name_len) + where);
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    uint32_t ndim = 0;
    if (!in || !ReadU32(in, &ndim)) {
      return util::Status::IoError("truncated checkpoint " + path + where);
    }
    if (ndim > kMaxDims) {
      return util::Status::InvalidArgument(
          "corrupt checkpoint " + path + ": parameter '" + name + "' claims " +
          std::to_string(ndim) + " dimensions" + where);
    }
    RawEntry entry;
    int64_t volume = 1;
    for (uint32_t i = 0; i < ndim; ++i) {
      uint64_t extent = 0;
      if (!ReadU64(in, &extent) || extent == 0 ||
          extent > static_cast<uint64_t>(kMaxElements) ||
          volume > kMaxElements / static_cast<int64_t>(extent)) {
        return util::Status::InvalidArgument(
            "corrupt checkpoint " + path + ": bad shape for '" + name + "'" +
            where);
      }
      entry.shape.push_back(static_cast<int64_t>(extent));
      volume *= static_cast<int64_t>(extent);
    }
    // A corrupt extent can claim up to kMaxElements (8 GiB of floats) and
    // previously caused a giant zero-filled allocation before the short read
    // below failed. The payload cannot exceed what is left in the file, so
    // bound the claim by the actual byte count before sizing any buffer.
    const int64_t remaining = file_size - static_cast<int64_t>(in.tellg());
    if (volume > remaining / static_cast<int64_t>(sizeof(float))) {
      return util::Status::IoError("truncated checkpoint data in " + path +
                                   " for '" + name + "'" + where);
    }
    entry.data.resize(static_cast<size_t>(volume));
    in.read(reinterpret_cast<char*>(entry.data.data()),
            static_cast<std::streamsize>(volume * sizeof(float)));
    if (!in) {
      return util::Status::IoError("truncated checkpoint data in " + path +
                                   " for '" + name + "'" + where);
    }
    if (!entries.emplace(std::move(name), std::move(entry)).second) {
      return util::Status::InvalidArgument(
          "duplicate checkpoint parameter in " + path + where);
    }
  }
  for (Parameter* p : params) {
    // A model previously pointed at an mmap-ed v2 checkpoint holds borrowed
    // (read-only) values; re-own before writing into them.
    if (p->value.borrowed()) p->value = Tensor(p->value.shape());
    auto it = entries.find(p->name);
    if (it != entries.end()) {
      RawEntry& entry = it->second;
      if (!SameExtents(entry.shape, p->value)) {
        return util::Status::InvalidArgument("shape mismatch for " + p->name);
      }
      std::copy(entry.data.begin(), entry.data.end(), p->value.data());
      p->BumpRevision();
      entry.used = true;
      continue;
    }
    const bool packed_w = p->name.ends_with(".wqkv.w") && p->value.ndim() == 2;
    const bool packed_b = p->name.ends_with(".wqkv.b") && p->value.ndim() == 1;
    if (packed_w || packed_b) {
      util::Status status = LoadPackedQkv(p->name, p, &entries, packed_w);
      if (!status.ok()) return status;
      p->BumpRevision();
      continue;
    }
    return util::Status::InvalidArgument(
        "parameter name mismatch: model '" + p->name +
        "' not found in checkpoint");
  }
  for (const auto& [name, entry] : entries) {
    if (!entry.used) {
      return util::Status::InvalidArgument(
          "checkpoint parameter '" + name + "' has no matching model parameter");
    }
  }
  BytesCopiedCounter()->Increment(static_cast<uint64_t>(file_size));
  return util::Status::Ok();
}

// --- v2 format (DESIGN §14) -----------------------------------------------
//
// Fixed-size little-endian header + table of contents, then 64-byte-aligned
// tensor sections. Every field a loader dereferences is validated against
// the fstat-reported file size *before* any allocation or access, so a
// truncated or corrupt file fails with a Status instead of a fault; the
// payload itself is never parsed — fp32 tensors borrow the mapping in
// place, which is what makes cold start O(page faults) and lets N workers
// share one physical copy.

namespace {

constexpr uint64_t kV2Align = 64;
constexpr uint64_t kV2NameBytes = 64;  // NUL-terminated, so max length 63
constexpr uint32_t kV2MaxDims = 4;
constexpr uint8_t kV2DtypeF32 = 0;
constexpr uint8_t kV2DtypeI8 = 1;

struct V2Header {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t param_count = 0;
  uint64_t file_size = 0;   // must equal the on-disk size (truncation check)
  uint64_t toc_offset = 0;  // always 64 today, but recorded for evolution
  uint64_t toc_size = 0;    // param_count * sizeof(V2Entry)
  uint8_t reserved[24] = {};
};
static_assert(sizeof(V2Header) == 64);

struct V2Entry {
  char name[kV2NameBytes] = {};
  uint8_t dtype = 0;
  uint8_t ndim = 0;
  uint16_t reserved0 = 0;
  uint32_t reserved1 = 0;
  uint64_t dims[kV2MaxDims] = {};  // logical fp32 extents; unused are 0
  uint64_t data_offset = 0;        // 64-aligned section start
  uint64_t data_bytes = 0;
  uint64_t scale_offset = 0;       // i8 only: fp32 scale table, 64-aligned
  uint64_t scale_bytes = 0;
};
static_assert(sizeof(V2Entry) == 136);

uint64_t AlignUp64(uint64_t value) {
  return (value + (kV2Align - 1)) & ~(kV2Align - 1);
}

// Int8 storage eligibility: exactly the Linear weight matrices (embedding
// tables end in ".table", biases and LayerNorm params are 1-D).
bool QuantEligible(const Parameter& p) {
  return p.value.ndim() == 2 && p.name.ends_with(".w");
}

util::Status WriteZeroPadding(std::ofstream& out, uint64_t count) {
  static const char zeros[kV2Align] = {};
  while (count > 0) {
    const uint64_t chunk = count < kV2Align ? count : kV2Align;
    out.write(zeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
  if (!out) return util::Status::IoError("failed writing padding");
  return util::Status::Ok();
}

}  // namespace

util::Status SaveParametersV2(const std::string& path,
                              const ParameterList& params,
                              const SaveV2Options& options) {
  // Lay out the file first: header, TOC, then per-parameter sections in
  // list order, each 64-aligned.
  std::vector<V2Entry> toc(params.size());
  std::vector<QuantizedWeight> quantized(params.size());
  uint64_t cursor =
      AlignUp64(sizeof(V2Header) + params.size() * sizeof(V2Entry));
  for (size_t i = 0; i < params.size(); ++i) {
    const Parameter* p = params[i];
    V2Entry& entry = toc[i];
    if (p->name.empty() || p->name.size() >= kV2NameBytes) {
      return util::Status::InvalidArgument(
          "parameter name does not fit the v2 name field: '" + p->name + "'");
    }
    if (p->value.ndim() < 1 ||
        p->value.ndim() > static_cast<int>(kV2MaxDims)) {
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
      entry.dtype = kV2DtypeI8;
      entry.data_offset = cursor;
      entry.data_bytes = volume;  // one byte per element, transposed
      cursor = AlignUp64(cursor + entry.data_bytes);
      entry.scale_offset = cursor;
      entry.scale_bytes =
          static_cast<uint64_t>(quantized[i].out) * sizeof(float);
      cursor = AlignUp64(cursor + entry.scale_bytes);
    } else {
      entry.dtype = kV2DtypeF32;
      entry.data_offset = cursor;
      entry.data_bytes = volume * sizeof(float);
      cursor = AlignUp64(cursor + entry.data_bytes);
    }
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) return util::Status::IoError("cannot open " + path);
  V2Header header;
  header.magic = kMagic;
  header.version = kVersionV2;
  header.param_count = params.size();
  header.file_size = cursor;
  header.toc_offset = sizeof(V2Header);
  header.toc_size = params.size() * sizeof(V2Entry);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const V2Entry& entry : toc) {
    out.write(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  uint64_t written = sizeof(V2Header) + header.toc_size;
  for (size_t i = 0; i < params.size(); ++i) {
    const V2Entry& entry = toc[i];
    if (util::Status pad = WriteZeroPadding(out, entry.data_offset - written);
        !pad.ok()) {
      return pad;
    }
    if (entry.dtype == kV2DtypeI8) {
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
  if (util::Status pad = WriteZeroPadding(out, cursor - written); !pad.ok()) {
    return pad;
  }
  if (!out) return util::Status::IoError("failed writing " + path);
  return util::Status::Ok();
}

namespace {

// One validated v2 TOC entry, still pointing into the mapping.
struct V2Parsed {
  V2Entry entry;
  std::vector<int64_t> shape;
  bool used = false;
};

util::Status CorruptV2(const std::string& path, const std::string& what) {
  return util::Status::InvalidArgument("corrupt v2 checkpoint " + path +
                                       ": " + what);
}

}  // namespace

namespace {

util::Status LoadParametersV2Impl(const std::string& path,
                                  const ParameterList& params) {
  auto opened = util::MmapFile::Open(path);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<util::MmapFile> file = opened.value();
  const uint8_t* base = file->data();
  const uint64_t size = file->size();

  // Header: every downstream extent is checked against `size` (from fstat,
  // the only trusted length) before it is dereferenced.
  if (size < sizeof(V2Header)) {
    return CorruptV2(path, "file smaller than the header");
  }
  V2Header header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kMagic) {
    return util::Status::InvalidArgument(path + " is not a doduo checkpoint");
  }
  if (header.version != kVersionV2) {
    return CorruptV2(path, "unexpected version in v2 loader");
  }
  if (header.param_count > kMaxParameters) {
    return CorruptV2(path, "implausible parameter count " +
                               std::to_string(header.param_count));
  }
  if (header.file_size != size) {
    return CorruptV2(path, "recorded size " +
                               std::to_string(header.file_size) +
                               " != actual size " + std::to_string(size));
  }
  if (header.toc_offset != sizeof(V2Header)) {
    return CorruptV2(path, "unexpected TOC offset");
  }
  if (header.toc_size != header.param_count * sizeof(V2Entry)) {
    return CorruptV2(path, "TOC size does not match parameter count");
  }
  if (header.toc_offset + header.toc_size > size) {
    return CorruptV2(path, "TOC extends past end of file");
  }

  // TOC: validate names, shapes, and byte extents; index by name.
  std::map<std::string, V2Parsed> entries;
  for (uint64_t e = 0; e < header.param_count; ++e) {
    V2Parsed parsed;
    std::memcpy(&parsed.entry, base + header.toc_offset + e * sizeof(V2Entry),
                sizeof(V2Entry));
    const V2Entry& entry = parsed.entry;
    const std::string where = " (entry " + std::to_string(e) + ")";
    const void* nul = std::memchr(entry.name, '\0', kV2NameBytes);
    if (nul == nullptr || nul == entry.name) {
      return CorruptV2(path, "bad parameter name" + where);
    }
    const std::string name(entry.name);
    if (entry.dtype != kV2DtypeF32 && entry.dtype != kV2DtypeI8) {
      return CorruptV2(path, "unknown dtype for '" + name + "'" + where);
    }
    if (entry.ndim < 1 || entry.ndim > kV2MaxDims) {
      return CorruptV2(path, "bad rank for '" + name + "'" + where);
    }
    int64_t volume = 1;
    for (uint32_t d = 0; d < kV2MaxDims; ++d) {
      const uint64_t extent = entry.dims[d];
      if (d >= entry.ndim) {
        if (extent != 0) {
          return CorruptV2(path, "nonzero unused dim for '" + name + "'" +
                                     where);
        }
        continue;
      }
      if (extent == 0 || extent > static_cast<uint64_t>(kMaxElements) ||
          volume > kMaxElements / static_cast<int64_t>(extent)) {
        return CorruptV2(path, "bad shape for '" + name + "'" + where);
      }
      parsed.shape.push_back(static_cast<int64_t>(extent));
      volume *= static_cast<int64_t>(extent);
    }
    // Section extents: aligned, in-bounds, and exactly the size the shape
    // implies. All arithmetic stays in uint64 with the subtraction form of
    // the bound check, so a huge offset cannot wrap.
    if (entry.data_offset % kV2Align != 0 || entry.data_offset > size ||
        entry.data_bytes > size - entry.data_offset) {
      return CorruptV2(path, "data section out of bounds for '" + name +
                                 "'" + where);
    }
    if (entry.dtype == kV2DtypeF32) {
      if (entry.data_bytes != static_cast<uint64_t>(volume) * sizeof(float)) {
        return CorruptV2(path, "data size mismatch for '" + name + "'" +
                                   where);
      }
      if (entry.scale_offset != 0 || entry.scale_bytes != 0) {
        return CorruptV2(path, "fp32 entry with scale table for '" + name +
                                   "'" + where);
      }
    } else {
      if (entry.ndim != 2) {
        return CorruptV2(path, "int8 entry must be 2-D for '" + name + "'" +
                                   where);
      }
      if (entry.data_bytes != static_cast<uint64_t>(volume)) {
        return CorruptV2(path, "data size mismatch for '" + name + "'" +
                                   where);
      }
      const uint64_t out_channels = entry.dims[1];
      if (entry.scale_offset % kV2Align != 0 || entry.scale_offset > size ||
          entry.scale_bytes > size - entry.scale_offset ||
          entry.scale_bytes != out_channels * sizeof(float)) {
        return CorruptV2(path, "scale table out of bounds for '" + name +
                                   "'" + where);
      }
    }
    if (!entries.emplace(name, std::move(parsed)).second) {
      return CorruptV2(path, "duplicate parameter '" + name + "'" + where);
    }
  }

  // Match against the model. No gather shim in v2: names must match 1:1
  // (doduo_convert migrates legacy layouts through the v1 loader).
  for (Parameter* p : params) {
    auto it = entries.find(p->name);
    if (it == entries.end()) {
      return util::Status::InvalidArgument(
          "parameter name mismatch: model '" + p->name +
          "' not found in checkpoint");
    }
    V2Parsed& parsed = it->second;
    if (!SameExtents(parsed.shape, p->value)) {
      return util::Status::InvalidArgument("shape mismatch for " + p->name);
    }
    const V2Entry& entry = parsed.entry;
    if (entry.dtype == kV2DtypeF32) {
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

util::Status LoadParametersV2(const std::string& path,
                              const ParameterList& params) {
  return LoadParametersV2Impl(path, params);
}

}  // namespace

}  // namespace doduo::nn
