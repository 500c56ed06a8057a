#include "storage/canonical.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace opcqa {
namespace storage {

namespace {

// ---------------------------------------------------------------------
// Framing primitives
// ---------------------------------------------------------------------

constexpr char kMagic[8] = {'O', 'P', 'C', 'Q', 'S', 'N', 'A', 'P'};
constexpr uint32_t kSectionIdentity = 1;
constexpr uint32_t kSectionEntries = 2;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the ubiquitous choice for
/// detecting accidental corruption in storage formats.
const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

uint32_t Crc32(const char* data, size_t size) {
  const auto& table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(data[i])) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Little-endian append-only writer. Fixed-width integers keep the
/// framing host-independent; Var() is unsigned LEB128 (7 bits per byte,
/// high bit = continuation), the payload workhorse.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t value) { out_->push_back(static_cast<char>(value)); }
  void U32(uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
    }
  }
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
    }
  }
  void Var(uint64_t value) {
    while (value >= 0x80) {
      out_->push_back(static_cast<char>((value & 0x7Fu) | 0x80u));
      value >>= 7;
    }
    out_->push_back(static_cast<char>(value));
  }
  void Str(const std::string& text) {
    U32(static_cast<uint32_t>(text.size()));
    out_->append(text);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reader: every accessor fails (sets a flag
/// and returns zero/empty) instead of reading past the end, so truncated
/// or length-corrupted snapshots surface as a clean decode error.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }

  uint8_t U8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Require(4)) return 0;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    return value;
  }
  uint64_t U64() {
    if (!Require(8)) return 0;
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    return value;
  }
  /// Unsigned LEB128, capped at 10 bytes / 64 payload bits — an
  /// over-long or overflowing varint is corruption, not a value.
  uint64_t Var() {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return 0;
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift == 63 && (byte & 0xFEu) != 0) {
        ok_ = false;  // bits beyond the 64th
        return 0;
      }
      value |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
    ok_ = false;
    return 0;
  }
  std::string Str() {
    uint32_t size = U32();
    if (!Require(size)) return std::string();
    std::string text(data_ + pos_, size);
    pos_ += size;
    return text;
  }
  /// A raw sub-span (for section payloads); empty on overflow.
  std::pair<const char*, size_t> Span(size_t size) {
    if (!Require(size)) return {nullptr, 0};
    const char* begin = data_ + pos_;
    pos_ += size;
    return {begin, size};
  }

 private:
  bool Require(size_t bytes) {
    if (!ok_ || size_ - pos_ < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

void AppendSection(std::string* out, uint32_t id, const std::string& payload) {
  Writer writer(out);
  writer.U32(id);
  writer.U64(payload.size());
  writer.U32(Crc32(payload.data(), payload.size()));
  out->append(payload);
}

// ---------------------------------------------------------------------
// Streaming string dictionary
//
// The decimal num/den mass strings dominate a snapshot and repeat
// heavily (shared denominators across a chain's subtrees). Strings are
// therefore emitted as a varint token into a dictionary built *while
// streaming*: a token below the current dictionary size reuses that
// string, a token equal to it defines the next string inline
// (length-prefixed, appended to the dictionary), anything larger is
// corruption. Encoder and decoder build identical dictionaries by
// construction — no dictionary section, no second pass over a
// possibly-mutating table.
// ---------------------------------------------------------------------

class StringDictEncoder {
 public:
  void Write(Writer* writer, const std::string& text) {
    auto [it, inserted] = index_.try_emplace(text, index_.size());
    writer->Var(it->second);
    if (inserted) writer->Str(text);
  }

 private:
  std::unordered_map<std::string, uint64_t> index_;
};

class StringDictDecoder {
 public:
  bool Read(Reader* reader, std::string* out) {
    uint64_t token = reader->Var();
    if (!reader->ok() || token > strings_.size()) return false;
    if (token == strings_.size()) {
      strings_.push_back(reader->Str());
      if (!reader->ok()) return false;
    }
    *out = strings_[token];
    return true;
  }

 private:
  std::vector<std::string> strings_;
};

// ---------------------------------------------------------------------
// Encode helpers
// ---------------------------------------------------------------------

/// The root's facts in value order — identical in every process holding an
/// equal database, which is what makes dictionary indices canonical.
std::vector<FactId> Dictionary(const Database& root_db) {
  return root_db.AllFactIds();
}

using FactIndexMap = std::unordered_map<FactId, uint32_t>;

FactIndexMap IndexOf(const std::vector<FactId>& dictionary) {
  FactIndexMap index_of;
  index_of.reserve(dictionary.size());
  for (uint32_t i = 0; i < dictionary.size(); ++i) {
    index_of.emplace(dictionary[i], i);
  }
  return index_of;
}

std::vector<uint32_t> RemovedIndices(const std::vector<FactId>& removed,
                                     const FactIndexMap& index_of) {
  // Ascending dictionary indices == fact value order, independent of the
  // process-local numeric id order the live table verifies in.
  std::vector<uint32_t> indices;
  indices.reserve(removed.size());
  for (FactId id : removed) {
    auto it = index_of.find(id);
    OPCQA_CHECK(it != index_of.end())
        << "memo entry removes a fact outside the chain root";
    indices.push_back(it->second);
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// Varint count, then the first index followed by gap-1 codes — a
/// strictly ascending set's gaps are >= 1, so the subtraction frees the
/// common dense-range case into single-byte varints.
void EncodeIndices(Writer* writer, const std::vector<uint32_t>& indices) {
  writer->Var(indices.size());
  uint32_t previous = 0;
  for (size_t i = 0; i < indices.size(); ++i) {
    writer->Var(i == 0 ? indices[0] : indices[i] - previous - 1);
    previous = indices[i];
  }
}

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("snapshot rejected: " + what);
}

/// Maps gap-coded dictionary indices back to live ids. Returns false on
/// any out-of-range index (corrupt payload).
bool DecodeRemoved(Reader* reader, const std::vector<FactId>& dictionary,
                   std::vector<FactId>* out) {
  uint64_t count = reader->Var();
  if (!reader->ok() || count > dictionary.size()) return false;
  out->clear();
  out->reserve(count);
  uint64_t index = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t gap = reader->Var();
    // Bounding the gap first keeps index + gap + 1 from wrapping; any
    // valid gap is below the dictionary size.
    if (!reader->ok() || gap >= dictionary.size()) return false;
    index = i == 0 ? gap : index + gap + 1;
    if (index >= dictionary.size()) return false;
    out->push_back(dictionary[index]);
  }
  return true;
}

bool DecodeMass(Reader* reader, StringDictDecoder* dict, Rational* out) {
  std::string text;
  if (!dict->Read(reader, &text)) return false;
  Result<Rational> parsed = Rational::FromString(text);
  if (!parsed.ok()) return false;
  *out = std::move(parsed.value());
  return true;
}

// ---------------------------------------------------------------------
// Identity payload
// ---------------------------------------------------------------------

std::string EncodeIdentityPayload(const SnapshotIdentity& identity) {
  std::string payload;
  Writer writer(&payload);
  writer.Str(identity.db_text);
  writer.Str(identity.constraints_digest);
  writer.Str(identity.generator_identity);
  writer.U8(identity.prune ? 1 : 0);
  return payload;
}

/// Parses an identity section payload and verifies every component by
/// string equality against the live rendering — the check that makes a
/// fingerprint collision split roots instead of aliasing them.
Status VerifyIdentityPayload(const char* data, size_t size,
                             const SnapshotIdentity& expected) {
  Reader reader(data, size);
  SnapshotIdentity stored;
  stored.db_text = reader.Str();
  stored.constraints_digest = reader.Str();
  stored.generator_identity = reader.Str();
  stored.prune = reader.U8() != 0;
  if (!reader.ok() || !reader.AtEnd()) return Corrupt("identity framing");
  if (stored.db_text != expected.db_text ||
      stored.constraints_digest != expected.constraints_digest ||
      stored.generator_identity != expected.generator_identity ||
      stored.prune != expected.prune) {
    return Corrupt("identity mismatch (another root, or stale schema)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Entry payloads
// ---------------------------------------------------------------------

/// Encodes `entries` in canonical order: ascending removed-index set
/// (lexicographic; the root's empty set first), unique per entry since it
/// determines the entry's database. Equal entry sets thus give equal
/// bytes — the streaming string dictionary included — whatever order the
/// table was filled in.
std::string EncodeEntriesPayload(
    const Database& root_db,
    const std::vector<TranspositionTable::EntryCopy>& entries) {
  std::vector<FactId> dictionary = Dictionary(root_db);
  FactIndexMap index_of = IndexOf(dictionary);
  struct Keyed {
    std::vector<uint32_t> removed;
    const TranspositionTable::EntryCopy* entry;
  };
  std::vector<Keyed> order;
  order.reserve(entries.size());
  for (const TranspositionTable::EntryCopy& entry : entries) {
    order.push_back(Keyed{RemovedIndices(entry.removed, index_of), &entry});
  }
  std::sort(order.begin(), order.end(), [](const Keyed& a, const Keyed& b) {
    return a.removed < b.removed;
  });
  std::string payload;
  Writer writer(&payload);
  // Fixed-width prefix (everything after is varint/dict-coded): the
  // dictionary size pins the index space.
  writer.U64(dictionary.size());
  writer.U64(order.size());
  StringDictEncoder dict;
  for (const Keyed& keyed : order) {
    const MemoOutcome& outcome = *keyed.entry->outcome;
    EncodeIndices(&writer, keyed.removed);
    // Shares in ascending removed-index set order, like the entries:
    // their in-memory order follows process-local ids.
    std::vector<std::pair<std::vector<uint32_t>,
                          const MemoOutcome::RepairShare*>>
        shares;
    shares.reserve(outcome.repairs.size());
    for (const MemoOutcome::RepairShare& share : outcome.repairs) {
      shares.emplace_back(RemovedIndices(share.removed, index_of), &share);
    }
    std::sort(shares.begin(), shares.end());
    writer.Var(shares.size());
    for (const auto& [indices, share] : shares) {
      EncodeIndices(&writer, indices);
      dict.Write(&writer, share->mass.ToString());
      writer.Var(share->num_sequences);
    }
    dict.Write(&writer, outcome.success_mass.ToString());
    dict.Write(&writer, outcome.failing_mass.ToString());
    writer.Var(outcome.states);
    writer.Var(outcome.absorbing_states);
    writer.Var(outcome.successful_sequences);
    writer.Var(outcome.failing_sequences);
    writer.Var(outcome.depth_below);
  }
  return payload;
}

/// Decodes one entries payload into `table`, re-keying every entry
/// against the live process.
Status RestoreEntriesPayload(const char* data, size_t size,
                             const std::vector<FactId>& dictionary,
                             size_t root_hash, TranspositionTable* table) {
  Reader reader(data, size);
  StringDictDecoder dict;
  uint64_t stored_dictionary_size = reader.U64();
  if (!reader.ok() || stored_dictionary_size != dictionary.size()) {
    return Corrupt("dictionary size mismatch");
  }
  uint64_t entry_count = reader.U64();
  if (!reader.ok()) return Corrupt("entries framing");

  std::vector<FactId> scratch;
  for (uint64_t e = 0; e < entry_count; ++e) {
    if (!DecodeRemoved(&reader, dictionary, &scratch)) {
      return Corrupt("entry removed-set");
    }
    // Live StateKey: the entry state's database is root − removed, and the
    // incremental Database hash is a wrap-around sum of mixed per-fact
    // hashes (util/hash.h), so removal subtracts each contribution.
    size_t db_hash = root_hash;
    std::vector<FactId> removed(scratch);
    std::sort(removed.begin(), removed.end());  // numeric order, as stored
    for (FactId id : removed) {
      db_hash -= HashMix64(FactStore::Global().hash(id));
    }

    auto outcome = std::make_shared<MemoOutcome>();
    uint64_t repair_count = reader.Var();
    if (!reader.ok()) return Corrupt("repair count");
    // Clamped so a corrupt count surfaces as a bounded-read failure,
    // never as bad_alloc (decode never aborts).
    outcome->repairs.reserve(std::min<uint64_t>(repair_count, 65536));
    for (uint64_t i = 0; i < repair_count; ++i) {
      MemoOutcome::RepairShare share;
      if (!DecodeRemoved(&reader, dictionary, &share.removed)) {
        return Corrupt("repair share removed-set");
      }
      // Numeric id order, as RepairShare::removed stores it.
      std::sort(share.removed.begin(), share.removed.end());
      if (!DecodeMass(&reader, &dict, &share.mass)) {
        return Corrupt("repair mass");
      }
      share.num_sequences = reader.Var();
      if (!reader.ok()) return Corrupt("repair sequences");
      outcome->repairs.push_back(std::move(share));
    }
    if (!DecodeMass(&reader, &dict, &outcome->success_mass) ||
        !DecodeMass(&reader, &dict, &outcome->failing_mass)) {
      return Corrupt("outcome masses");
    }
    outcome->states = reader.Var();
    outcome->absorbing_states = reader.Var();
    outcome->successful_sequences = reader.Var();
    outcome->failing_sequences = reader.Var();
    outcome->depth_below = reader.Var();
    if (!reader.ok()) return Corrupt("outcome counters");

    table->Admit(StateKey{db_hash}, std::move(removed), std::move(outcome));
  }
  if (!reader.AtEnd()) return Corrupt("trailing entry bytes");
  return Status::Ok();
}

}  // namespace

std::string RenderConstraints(const Schema& schema,
                              const ConstraintSet& constraints) {
  std::string digest;
  for (const Constraint& constraint : constraints) {
    digest += constraint.ToString(schema);
    digest += '\n';
  }
  return digest;
}

uint64_t StableFingerprint(const SnapshotIdentity& identity) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  auto mix = [&hash](const char* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash ^= static_cast<uint8_t>(data[i]);
      hash *= 0x100000001b3ULL;  // FNV prime
    }
  };
  // A separator byte between components keeps ("ab","c") and ("a","bc")
  // distinct; components themselves never contain 0x1F.
  char separator = 0x1F;
  mix(identity.db_text.data(), identity.db_text.size());
  mix(&separator, 1);
  mix(identity.constraints_digest.data(), identity.constraints_digest.size());
  mix(&separator, 1);
  mix(identity.generator_identity.data(), identity.generator_identity.size());
  mix(&separator, 1);
  char prune = identity.prune ? 1 : 0;
  mix(&prune, 1);
  return hash;
}

std::string EncodeSnapshot(const SnapshotIdentity& identity,
                           const Database& root_db,
                           const TranspositionTable& table) {
  std::string entries_payload = EncodeEntriesPayload(root_db, table.Entries());
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  Writer header(&out);
  header.U32(kSnapshotFormatVersion);
  header.U32(2);  // section count
  AppendSection(&out, kSectionIdentity, EncodeIdentityPayload(identity));
  AppendSection(&out, kSectionEntries, entries_payload);
  return out;
}

Result<std::shared_ptr<TranspositionTable>> DecodeSnapshot(
    const std::string& bytes, const SnapshotIdentity& expected,
    const Database& live_root, size_t max_entries, size_t max_bytes) {
  Reader top(bytes.data(), bytes.size());
  auto [magic, magic_size] = top.Span(sizeof(kMagic));
  if (!top.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  uint32_t version = top.U32();
  if (!top.ok() || version != kSnapshotFormatVersion) {
    return Corrupt("format version " + std::to_string(version) +
                   " (this build reads " +
                   std::to_string(kSnapshotFormatVersion) + ")");
  }
  uint32_t section_count = top.U32();
  if (!top.ok() || section_count != 2) return Corrupt("bad section count");

  std::pair<const char*, size_t> sections[2] = {};
  bool seen[2] = {false, false};
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = top.U32();
    uint64_t size = top.U64();
    uint32_t crc = top.U32();
    auto span = top.Span(size);
    if (!top.ok()) return Corrupt("truncated section");
    if (Crc32(span.first, span.second) != crc) {
      return Corrupt("section checksum mismatch");
    }
    if (id != kSectionIdentity && id != kSectionEntries) {
      return Corrupt("unknown section id");
    }
    size_t slot = id == kSectionIdentity ? 0 : 1;
    if (seen[slot]) return Corrupt("duplicate section");
    seen[slot] = true;
    sections[slot] = span;
  }
  if (!top.AtEnd()) return Corrupt("trailing bytes");
  if (!seen[0] || !seen[1]) return Corrupt("missing section");

  Status identity_ok =
      VerifyIdentityPayload(sections[0].first, sections[0].second, expected);
  if (!identity_ok.ok()) return identity_ok;

  std::vector<FactId> dictionary = Dictionary(live_root);
  auto table = std::make_shared<TranspositionTable>(max_entries, max_bytes);
  Status entries_ok = RestoreEntriesPayload(
      sections[1].first, sections[1].second, dictionary, live_root.Hash(),
      table.get());
  if (!entries_ok.ok()) return entries_ok;
  return table;
}

}  // namespace storage
}  // namespace opcqa
