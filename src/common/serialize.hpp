// Binary serialization for model artifacts.
//
// Trained float models, quantized models and calibration statistics are
// cached on disk between runs (training the AlexNet-class model takes
// minutes; benches and examples share one artifact). After a magic string
// and a format version, an artifact is a list of fields in a fixed order,
// in host byte order, with no per-field tags or sizes: only vectors and
// strings carry a length, and only .qm layer records carry a kind tag
// (src/quant/qmodel_io.cpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"

namespace ataman {

class BinaryWriter {
 public:
  BinaryWriter(const std::string& path, const std::string& magic);
  ~BinaryWriter();

  void u32(uint32_t v);
  void i32(int32_t v);
  void u64(uint64_t v);
  void f32(float v);
  void f64(double v);
  void str(const std::string& s);
  void bytes(const void* data, size_t n);

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }

  void close();

 private:
  std::ofstream out_;
  std::string path_;
};

class BinaryReader {
 public:
  BinaryReader(const std::string& path, const std::string& magic);

  uint32_t u32();
  int32_t i32();
  uint64_t u64();
  float f32();
  double f64();
  std::string str();
  void bytes(void* data, size_t n);

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t n = u64();
    check_count(n, sizeof(T));
    std::vector<T> v(static_cast<size_t>(n));
    bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  // Throws unless `n` elements of at least `elem_bytes` each fit in the
  // bytes left, so a corrupt count fails before anything is allocated.
  void check_count(uint64_t n, size_t elem_bytes) const;

  bool at_end() const { return pos_ >= size_; }

 private:
  std::ifstream in_;
  std::string path_;
  uint64_t size_ = 0;  // file size, taken at open
  uint64_t pos_ = 0;   // bytes read so far
};

bool file_exists(const std::string& path);
void ensure_directory(const std::string& path);

}  // namespace ataman
