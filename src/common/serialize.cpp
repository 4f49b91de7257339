#include "src/common/serialize.hpp"

#include <filesystem>

namespace ataman {

namespace {
constexpr uint32_t kFormatVersion = 3;
}

BinaryWriter::BinaryWriter(const std::string& path, const std::string& magic)
    : out_(path, std::ios::binary), path_(path) {
  check(out_.good(), "cannot open file for writing: " + path);
  str(magic);
  u32(kFormatVersion);
}

BinaryWriter::~BinaryWriter() = default;

void BinaryWriter::u32(uint32_t v) { bytes(&v, sizeof v); }
void BinaryWriter::i32(int32_t v) { bytes(&v, sizeof v); }
void BinaryWriter::u64(uint64_t v) { bytes(&v, sizeof v); }
void BinaryWriter::f32(float v) { bytes(&v, sizeof v); }
void BinaryWriter::f64(double v) { bytes(&v, sizeof v); }

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void BinaryWriter::bytes(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  check(out_.good(), "write failed: " + path_);
}

void BinaryWriter::close() {
  out_.close();
  check(!out_.fail(), "close failed: " + path_);
}

BinaryReader::BinaryReader(const std::string& path, const std::string& magic)
    : in_(path, std::ios::binary), path_(path) {
  check(in_.good(), "cannot open file for reading: " + path);
  std::error_code ec;
  size_ = std::filesystem::file_size(path, ec);
  check(!ec, "cannot size file: " + path);
  const std::string got = str();
  check(got == magic, "bad magic in " + path + " (expected " + magic +
                          ", got " + got + ")");
  const uint32_t version = u32();
  check(version == kFormatVersion,
        "unsupported artifact version in " + path);
}

uint32_t BinaryReader::u32() {
  uint32_t v = 0;
  bytes(&v, sizeof v);
  return v;
}

int32_t BinaryReader::i32() {
  int32_t v = 0;
  bytes(&v, sizeof v);
  return v;
}

uint64_t BinaryReader::u64() {
  uint64_t v = 0;
  bytes(&v, sizeof v);
  return v;
}

float BinaryReader::f32() {
  float v = 0;
  bytes(&v, sizeof v);
  return v;
}

double BinaryReader::f64() {
  double v = 0;
  bytes(&v, sizeof v);
  return v;
}

std::string BinaryReader::str() {
  const uint64_t n = u64();
  check_count(n, 1);
  std::string s(static_cast<size_t>(n), '\0');
  bytes(s.data(), s.size());
  return s;
}

void BinaryReader::bytes(void* data, size_t n) {
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  check(in_.gcount() == static_cast<std::streamsize>(n),
        "unexpected end of file: " + path_);
  pos_ += n;
}

void BinaryReader::check_count(uint64_t n, size_t elem_bytes) const {
  const uint64_t left = size_ > pos_ ? size_ - pos_ : 0;
  if (n > left / elem_bytes) fail("count exceeds the bytes left in " + path_);
}

bool file_exists(const std::string& path) {
  return std::filesystem::exists(path);
}

void ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  check(!ec, "cannot create directory: " + path);
}

}  // namespace ataman
