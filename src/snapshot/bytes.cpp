#include "snapshot/bytes.h"

#include <array>

namespace qcdoc::snapshot {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold in one step of eight independent lookups.
using CrcTables = std::array<std::array<u32, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

}  // namespace

u32 crc32(std::span<const u8> bytes, u32 seed) {
  static const CrcTables kT = make_crc_tables();
  u32 c = seed ^ 0xffffffffu;
  const u8* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = c ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    c = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
        kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xffu] ^
        kT[2][(hi >> 8) & 0xffu] ^ kT[1][(hi >> 16) & 0xffu] ^
        kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kT[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void ByteSink::put_string(const std::string& s) {
  put_u32(static_cast<u32>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteSink::put_u64_span(std::span<const u64> v) {
  put_u64(v.size());
  for (const u64 w : v) put_u64(w);
}

void ByteSink::put_double_span(std::span<const double> v) {
  put_u64(v.size());
  for (const double d : v) put_double(d);
}

Status ByteSource::need(std::size_t n, const char* what) {
  if (remaining() < n) {
    return Status::fail(context_ + ": truncated at byte " +
                        std::to_string(pos_) + " (need " + std::to_string(n) +
                        " for " + what + ", have " +
                        std::to_string(remaining()) + ")");
  }
  return Status::good();
}

u64 ByteSource::get_le(int n) {
  u64 v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<u64>(bytes_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return v;
}

Status ByteSource::get_u8(u8* out) {
  if (Status s = need(1, "u8"); !s) return s;
  *out = static_cast<u8>(get_le(1));
  return Status::good();
}

Status ByteSource::get_u16(u16* out) {
  if (Status s = need(2, "u16"); !s) return s;
  *out = static_cast<u16>(get_le(2));
  return Status::good();
}

Status ByteSource::get_u32(u32* out) {
  if (Status s = need(4, "u32"); !s) return s;
  *out = static_cast<u32>(get_le(4));
  return Status::good();
}

Status ByteSource::get_u64(u64* out) {
  if (Status s = need(8, "u64"); !s) return s;
  *out = get_le(8);
  return Status::good();
}

Status ByteSource::get_i64(i64* out) {
  u64 v = 0;
  if (Status s = get_u64(&v); !s) return s;
  *out = static_cast<i64>(v);
  return Status::good();
}

Status ByteSource::get_double(double* out) {
  u64 bits = 0;
  if (Status s = get_u64(&bits); !s) return s;
  std::memcpy(out, &bits, sizeof(*out));
  return Status::good();
}

Status ByteSource::get_bool(bool* out) {
  u8 v = 0;
  if (Status s = get_u8(&v); !s) return s;
  *out = v != 0;
  return Status::good();
}

Status ByteSource::get_string(std::string* out) {
  u32 len = 0;
  if (Status s = get_u32(&len); !s) return s;
  if (Status s = need(len, "string payload"); !s) return s;
  out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return Status::good();
}

Status ByteSource::get_u64_vec(std::vector<u64>* out) {
  u64 n = 0;
  if (Status s = get_u64(&n); !s) return s;
  // Length-first guard: a corrupt length would overflow n * 8.
  if (n > remaining() / 8) {
    return Status::fail(context_ + ": u64 vector length " + std::to_string(n) +
                        " exceeds remaining payload");
  }
  out->resize(n);
  for (u64 i = 0; i < n; ++i) (*out)[i] = get_le(8);
  return Status::good();
}

Status ByteSource::get_double_vec(std::vector<double>* out) {
  u64 n = 0;
  if (Status s = get_u64(&n); !s) return s;
  if (n > remaining() / 8) {
    return Status::fail(context_ + ": double vector length " +
                        std::to_string(n) + " exceeds remaining payload");
  }
  out->resize(n);
  for (u64 i = 0; i < n; ++i) {
    const u64 bits = get_le(8);
    std::memcpy(&(*out)[i], &bits, sizeof(double));
  }
  return Status::good();
}

Status ByteSource::expect_exhausted() const {
  if (remaining() != 0) {
    return Status::fail(context_ + ": " + std::to_string(remaining()) +
                        " trailing bytes after decode (version skew?)");
  }
  return Status::good();
}

}  // namespace qcdoc::snapshot
