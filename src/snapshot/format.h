// The versioned snapshot container format (DESIGN.md §8).
//
// A snapshot file is a NERSC-configuration-style container generalized to
// arbitrary machine state: a fixed header (magic, format version, generation
// number), a section table, section payloads, and an end-of-file footer.
// Integrity is layered so every failure mode has a distinct diagnostic:
//
//   - header CRC     -> "not a snapshot" / "corrupt header"
//   - table CRC      -> "corrupt section table"
//   - per-section CRC-32 over the payload -> "section X corrupt/truncated"
//   - footer magic + total length -> torn write (file ends early)
//
// Sections are (8-char tag, u32 version, u32 flags, payload).  Readers must
// reject an unknown *required* section and skip unknown optional ones
// (kSectionOptional), which is the forward-compatibility rule: adding state
// to the snapshot is an optional section first, and becomes required only
// after a format-version bump.  Everything here is in-memory encode/decode;
// the atomic on-disk generation protocol lives in store.h.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "snapshot/bytes.h"

namespace qcdoc::snapshot {

inline constexpr char kFileMagic[8] = {'Q', 'S', 'N', 'A', 'P', '1', '\r', '\n'};
inline constexpr char kFooterMagic[8] = {'Q', 'S', 'N', 'A', 'P', 'E', 'N', 'D'};
inline constexpr u32 kFormatVersion = 1;

/// Section flag: readers that do not know this tag may skip it.
inline constexpr u32 kSectionOptional = 1u << 0;

// Well-known section tags (8 chars, space padded).
inline constexpr const char* kSecMeta = "META    ";
inline constexpr const char* kSecEngine = "ENGINE  ";
inline constexpr const char* kSecMemory = "MEMORY  ";
inline constexpr const char* kSecEcc = "ECC     ";
inline constexpr const char* kSecScu = "SCU     ";
inline constexpr const char* kSecHealth = "HEALTH  ";
inline constexpr const char* kSecAudit = "AUDIT   ";
inline constexpr const char* kSecService = "SERVICE ";
inline constexpr const char* kSecSolver = "SOLVER  ";
inline constexpr const char* kSecJob = "JOB     ";
inline constexpr const char* kSecLinkFaults = "LINKFLT ";

struct Section {
  std::string tag;  ///< exactly 8 chars, space padded
  u32 version = 1;
  u32 flags = 0;
  std::vector<u8> payload;
};

/// Decoded (or to-be-encoded) snapshot: the unit store.h writes atomically.
class SnapshotFile {
 public:
  u64 generation() const { return generation_; }
  void set_generation(u64 g) { generation_ = g; }

  /// Append a section; `tag` is padded/truncated to 8 chars.
  void add_section(const std::string& tag, ByteSink payload, u32 version = 1,
                   u32 flags = 0);
  const std::vector<Section>& sections() const { return sections_; }

  /// The section with `tag`, or nullptr.
  const Section* find(const std::string& tag) const;
  /// A bounds-checked reader over the section's payload, or a failure when
  /// the section is missing.
  Status open(const std::string& tag, std::optional<ByteSource>* out) const;

  /// Serialize to the on-disk image (header + table + payloads + footer).
  std::vector<u8> encode() const;

  /// Parse and fully verify an on-disk image: header, table, every section
  /// CRC, footer.  On failure returns a diagnostic naming the first broken
  /// layer; `out` is untouched.
  static Status decode(std::span<const u8> bytes, SnapshotFile* out);

  /// Parse only header + table and verify each section's CRC without
  /// retaining payloads -- the qsnap inspector's cheap path.  Each entry of
  /// `notes` describes one section ("GOOD tag ..." / "BAD tag ...").
  static Status verify(std::span<const u8> bytes, u64* generation,
                       std::vector<std::string>* notes);

 private:
  static std::string pad_tag(const std::string& tag);

  u64 generation_ = 0;
  std::vector<Section> sections_;
};

}  // namespace qcdoc::snapshot
