#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>

#include "common/contracts.hpp"

namespace ca5g::nn {
namespace {

// v1 blobs carried only this magic and no version word; v2 uses a new
// magic so a legacy file is diagnosed as such rather than misreading its
// tensor count as a version number.
constexpr std::uint32_t kMagicV1 = 0xCA5610A0;
constexpr std::uint32_t kMagic = 0xCA5610A2;

template <typename T>
void append(std::vector<std::uint8_t>& out, const T& value) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
T read(const std::vector<std::uint8_t>& in, std::size_t& offset) {
  CA5G_CHECK_MSG(offset + sizeof(T) <= in.size(), "truncated parameter blob");
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

std::vector<std::uint8_t> serialize_parameters(const std::vector<Tensor>& params) {
  std::vector<std::uint8_t> out;
  append(out, kMagic);
  append(out, kSerializeFormatVersion);
  append(out, static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    CA5G_CHECK_MSG(p.defined(), "cannot serialize an undefined tensor");
    append(out, static_cast<std::uint32_t>(p.rows()));
    append(out, static_cast<std::uint32_t>(p.cols()));
    const auto& values = p.values();
    const std::size_t offset = out.size();
    out.resize(offset + values.size() * sizeof(float));
    std::memcpy(out.data() + offset, values.data(), values.size() * sizeof(float));
  }
  return out;
}

void deserialize_parameters(const std::vector<std::uint8_t>& blob,
                            std::vector<Tensor>& params) {
  std::size_t offset = 0;
  const auto magic = read<std::uint32_t>(blob, offset);
  CA5G_CHECK_MSG(magic != kMagicV1,
                 "unversioned legacy parameter blob (format v1); re-save the "
                 "model with this build to upgrade it to format v"
                     << kSerializeFormatVersion);
  CA5G_CHECK_MSG(magic == kMagic, "bad parameter blob magic");
  const auto version = read<std::uint32_t>(blob, offset);
  CA5G_CHECK_MSG(version == kSerializeFormatVersion,
                 "parameter blob format version mismatch: expected v"
                     << kSerializeFormatVersion << ", found v" << version);
  const auto count = read<std::uint32_t>(blob, offset);
  CA5G_CHECK_MSG(count == params.size(),
                 "parameter count mismatch: blob has " << count << ", model has "
                                                       << params.size());
  for (auto& p : params) {
    const auto rows = read<std::uint32_t>(blob, offset);
    const auto cols = read<std::uint32_t>(blob, offset);
    CA5G_CHECK_MSG(rows == p.rows() && cols == p.cols(),
                   "parameter shape mismatch: blob " << rows << "x" << cols << ", model "
                                                     << p.rows() << "x" << p.cols());
    auto& values = p.values();
    CA5G_CHECK_MSG(offset + values.size() * sizeof(float) <= blob.size(),
                   "truncated parameter payload");
    std::memcpy(values.data(), blob.data() + offset, values.size() * sizeof(float));
    offset += values.size() * sizeof(float);
  }
  CA5G_CHECK_MSG(offset == blob.size(), "trailing bytes in parameter blob");
}

void save_parameters(const std::vector<Tensor>& params, const std::string& path) {
  const auto blob = serialize_parameters(params);
  std::ofstream out(path, std::ios::binary);
  CA5G_CHECK_MSG(out.good(), "cannot open for write: " << path);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  CA5G_CHECK_MSG(out.good(), "write failed: " << path);
}

void load_parameters(std::vector<Tensor>& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CA5G_CHECK_MSG(in.good(), "cannot open for read: " << path);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> blob(size);
  in.read(reinterpret_cast<char*>(blob.data()), static_cast<std::streamsize>(size));
  CA5G_CHECK_MSG(in.good(), "read failed: " << path);
  try {
    deserialize_parameters(blob, params);
  } catch (const common::CheckError& e) {
    // Re-raise with the offending file named: a version/magic mismatch on
    // load should point at the artifact, not just the blob internals.
    CA5G_CHECK_MSG(false, "while loading " << path << ": " << e.what());
  }
}

}  // namespace ca5g::nn
