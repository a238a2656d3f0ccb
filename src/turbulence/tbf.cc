#include "turbulence/tbf.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/coding.h"
#include "common/string_util.h"

namespace easia::turb {

namespace {

constexpr std::string_view kMagic = "TBF1";
constexpr Component kComponents[] = {Component::kU, Component::kV,
                                     Component::kW, Component::kP};

/// Writes `values` to `dst` as little-endian IEEE-754 doubles.
void EncodeDoubles(std::span<const double> values, char* dst) {
  if (values.empty()) return;  // memcpy needs non-null pointers
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, values.data(), values.size() * sizeof(double));
  } else {
    for (double v : values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 8; ++b) *dst++ = static_cast<char>(bits >> (8 * b));
    }
  }
}

/// Reads `count` little-endian IEEE-754 doubles from `src`.
Field::Samples DecodeDoubles(const char* src, size_t count) {
  Field::Samples out(count);  // default-initialised: no zero fill
  if (count == 0) return out;  // memcpy needs non-null pointers
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), src, count * sizeof(double));
  } else {
    for (double& v : out) {
      uint64_t bits = 0;
      for (int b = 0; b < 8; ++b) {
        bits |= static_cast<uint64_t>(static_cast<uint8_t>(*src++)) << (8 * b);
      }
      std::memcpy(&v, &bits, sizeof v);
    }
  }
  return out;
}

}  // namespace

std::string SerializeTbf(const Field& field, uint32_t timestep) {
  size_t n = field.n();
  size_t component_bytes = n * n * n * sizeof(double);
  std::string out;
  out.reserve(kTbfHeaderBytes + 4 * component_bytes);
  out += kMagic;
  PutU32(&out, static_cast<uint32_t>(n));
  PutU32(&out, timestep);
  PutDouble(&out, field.time());
  PutDouble(&out, field.nu());
  out.resize(kTbfHeaderBytes + 4 * component_bytes);
  char* dst = out.data() + kTbfHeaderBytes;
  for (Component c : kComponents) {
    EncodeDoubles(field.Values(c), dst);
    dst += component_bytes;
  }
  return out;
}

Result<TbfHeader> ParseTbfHeader(std::string_view bytes) {
  if (bytes.size() < kTbfHeaderBytes ||
      bytes.substr(0, kMagic.size()) != kMagic) {
    return Status::Corruption("not a TBF file");
  }
  Decoder dec(bytes.substr(kMagic.size()));
  TbfHeader h;
  EASIA_ASSIGN_OR_RETURN(h.n, dec.GetU32());
  EASIA_ASSIGN_OR_RETURN(h.timestep, dec.GetU32());
  EASIA_ASSIGN_OR_RETURN(h.time, dec.GetDouble());
  EASIA_ASSIGN_OR_RETURN(h.nu, dec.GetDouble());
  return h;
}

Result<Field> ParseTbf(std::string_view bytes) {
  EASIA_ASSIGN_OR_RETURN(TbfHeader header, ParseTbfHeader(bytes));
  size_t n = header.n;
  size_t count = n * n * n;
  // n is a u32, so n*n fits; n*n*n and the byte total may not, and a
  // wrapped total must not pass the size check below.
  if (n != 0 && (count / (n * n) != n ||
                 count > (SIZE_MAX - kTbfHeaderBytes) / (4 * sizeof(double)))) {
    return Status::Corruption(StrPrintf("TBF grid too large: n=%zu", n));
  }
  size_t expected = kTbfHeaderBytes + 4 * count * sizeof(double);
  if (bytes.size() != expected) {
    return Status::Corruption(
        StrPrintf("TBF size mismatch: got %zu, want %zu", bytes.size(),
                  expected));
  }
  const char* src = bytes.data() + kTbfHeaderBytes;
  Field::Samples parts[4];
  for (Field::Samples& part : parts) {
    part = DecodeDoubles(src, count);
    src += count * sizeof(double);
  }
  return Field::FromComponents(n, header.time, header.nu, std::move(parts[0]),
                               std::move(parts[1]), std::move(parts[2]),
                               std::move(parts[3]));
}

std::string DatasetSpec::FileName() const {
  return StrPrintf("%s_t%04u_n%zu.tbf", simulation_key.c_str(), timestep,
                   grid_n);
}

Result<std::string> ArchiveDataset(fs::FileServer* server,
                                   const std::string& directory,
                                   const DatasetSpec& spec) {
  std::string dir = directory;
  if (dir.empty() || dir.back() != '/') dir += '/';
  std::string path = dir + spec.FileName();
  if (spec.materialize) {
    Field field = Field::Generate(spec.grid_n, spec.time, spec.nu);
    EASIA_RETURN_IF_ERROR(
        server->vfs().WriteFile(path, SerializeTbf(field, spec.timestep)));
  } else {
    EASIA_RETURN_IF_ERROR(
        server->vfs().CreateSparseFile(path, spec.SizeBytes()));
  }
  return "http://" + server->host() + path;
}

}  // namespace easia::turb
