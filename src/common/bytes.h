#ifndef DAVIX_COMMON_BYTES_H_
#define DAVIX_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace davix {

/// Little-endian fixed-width integers, the byte order of every binary
/// format in the tree: mux and xrootd frames, the compressed-block
/// header and the ROOT-like tree records.
template <typename T>
void PutLittleEndian(std::string* out, T value) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

template <typename T>
T GetLittleEndian(const char* p) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<T>(static_cast<unsigned char>(p[i]))
                            << (8 * i));
  }
  return value;
}

inline void PutU16(std::string* out, uint16_t v) { PutLittleEndian(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutLittleEndian(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutLittleEndian(out, v); }
inline uint16_t GetU16(const char* p) { return GetLittleEndian<uint16_t>(p); }
inline uint32_t GetU32(const char* p) { return GetLittleEndian<uint32_t>(p); }
inline uint64_t GetU64(const char* p) { return GetLittleEndian<uint64_t>(p); }

}  // namespace davix

#endif  // DAVIX_COMMON_BYTES_H_
