#include "src/omnipaxos/durable_storage.h"

#include <sstream>
#include <utility>

#include "src/audit/entry_hash.h"
#include "src/util/check.h"
#include "src/util/le_bytes.h"

namespace opx::omni {
namespace {

enum RecordType : uint8_t {
  kPromise = 1,
  kAccepted = 2,
  kAppend = 3,  // one entry per record: written by older builds, still replayed
  kTruncate = 4,
  kDecide = 5,
  kTrim = 6,
  kSnapshot = 7,
  kCheckpoint = 8,
  kAppendBatch = 9,
};

constexpr size_t kBallotBytes = 8 + 4 + 4;
constexpr size_t kCommandBytes = 8 + 4 + 1;  // an entry without a stop-sign
// Cap on one kAppendBatch payload. A batch above it (a follower adopting a
// long suffix) is split into several records, so no record comes near the
// WAL's kMaxRecordBytes recovery bound.
constexpr size_t kMaxBatchPayloadBytes = 1 << 20;

size_t EntryBytes(const Entry& e) {
  return e.IsStopSign() ? kCommandBytes + 4 + 4 + 4 * e.stop_sign->next_nodes.size()
                        : kCommandBytes;
}

size_t EntriesBytes(std::span<const Entry> entries) {
  size_t bytes = 4;
  for (const Entry& e : entries) {
    bytes += EntryBytes(e);
  }
  return bytes;
}

// The Encode* functions write at `p` and return the end of what they wrote;
// callers size the destination with the *Bytes functions above.
uint8_t* EncodeBallot(uint8_t* p, const Ballot& b) {
  util::StoreU64(p, b.n);
  util::StoreU32(p + 8, b.priority);
  util::StoreU32(p + 12, static_cast<uint32_t>(b.pid));
  return p + kBallotBytes;
}

uint8_t* EncodeEntry(uint8_t* p, const Entry& e) {
  util::StoreU64(p, e.cmd_id);
  util::StoreU32(p + 8, e.payload_bytes);
  p[12] = e.IsStopSign() ? 1 : 0;
  p += kCommandBytes;
  if (e.IsStopSign()) {
    util::StoreU32(p, e.stop_sign->next_config);
    util::StoreU32(p + 4, static_cast<uint32_t>(e.stop_sign->next_nodes.size()));
    p += 8;
    for (NodeId n : e.stop_sign->next_nodes) {
      util::StoreU32(p, static_cast<uint32_t>(n));
      p += 4;
    }
  }
  return p;
}

// u32 count, then the entries.
uint8_t* EncodeEntries(uint8_t* p, std::span<const Entry> entries) {
  util::StoreU32(p, static_cast<uint32_t>(entries.size()));
  p += 4;
  for (const Entry& e : entries) {
    p = EncodeEntry(p, e);
  }
  return p;
}

// Journals one record whose payload `fill(p)` encodes in place, returning
// the end of what it wrote. Refuses loudly around a WAL that cannot take it.
template <typename Fill>
void Journal(wal::SegmentedWal* wal, uint8_t type, size_t len, const Fill& fill) {
  OPX_CHECK(wal->ok()) << "WAL unusable: " << wal->error();
  wal->AppendRecordInPlace(type, len, [&fill, len](uint8_t* p) {
    const uint8_t* end = fill(p);
    OPX_DCHECK(end == p + len) << "record payload size mismatch";
  });
  // A threshold flush inside the append can fail; refuse before the
  // in-memory state moves ahead of a journal that lost this record.
  OPX_CHECK(wal->ok()) << "WAL write failed: " << wal->error();
}

void JournalIndex(wal::SegmentedWal* wal, uint8_t type, LogIndex idx) {
  Journal(wal, type, 8, [idx](uint8_t* p) {
    util::StoreU64(p, idx);
    return p + 8;
  });
}

// One kAppendBatch record for the whole run of entries, split only where a
// record would pass kMaxBatchPayloadBytes.
void JournalEntries(wal::SegmentedWal* wal, std::span<const Entry> entries) {
  while (!entries.empty()) {
    size_t count = 0;
    size_t bytes = 4;
    do {
      bytes += EntryBytes(entries[count]);
      ++count;
    } while (count < entries.size() &&
             bytes + EntryBytes(entries[count]) <= kMaxBatchPayloadBytes);
    const std::span<const Entry> batch = entries.first(count);
    Journal(wal, kAppendBatch, bytes, [batch](uint8_t* p) { return EncodeEntries(p, batch); });
    entries = entries.subspan(count);
  }
}

// Cursor over a record payload; all Get* return false on underrun.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool GetU8(uint8_t* v) {
    if (pos + 1 > size) {
      return false;
    }
    *v = data[pos++];
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (pos + 4 > size) {
      return false;
    }
    *v = util::GetU32(data + pos);
    pos += 4;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (pos + 8 > size) {
      return false;
    }
    *v = util::GetU64(data + pos);
    pos += 8;
    return true;
  }
  bool GetBallot(Ballot* b) {
    uint32_t priority = 0, pid = 0;
    if (!GetU64(&b->n) || !GetU32(&priority) || !GetU32(&pid)) {
      return false;
    }
    b->priority = priority;
    b->pid = static_cast<NodeId>(pid);
    return true;
  }
  bool GetEntry(Entry* e) {
    uint64_t cmd = 0;
    uint32_t payload = 0;
    uint8_t is_ss = 0;
    if (!GetU64(&cmd) || !GetU32(&payload) || !GetU8(&is_ss)) {
      return false;
    }
    if (is_ss) {
      StopSign ss;
      uint32_t next_config = 0, count = 0;
      if (!GetU32(&next_config) || !GetU32(&count) || count > 1024) {
        return false;
      }
      ss.next_config = next_config;
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t node = 0;
        if (!GetU32(&node)) {
          return false;
        }
        ss.next_nodes.push_back(static_cast<NodeId>(node));
      }
      *e = Entry::Stop(std::move(ss));
      e->payload_bytes = payload;
      e->cmd_id = cmd;
    } else {
      *e = Entry::Command(cmd, payload);
    }
    return true;
  }
};

// State accumulated by replay; handed to RestoreForRecovery at the end.
struct ReplayState {
  Ballot promised, accepted;
  std::vector<Entry> log;  // physical suffix [compacted, compacted + size)
  LogIndex compacted = 0;
  LogIndex decided = 0;
};

// Decodes and applies one record. False on a parse failure or a record
// semantically inconsistent with the replayed prefix — the WAL layer then
// fails recovery loudly: the record's frame CRC already passed, so it may
// have been group-committed and acknowledged, and truncating it could
// un-decide entries. (Torn tails never reach here; they fail CRC.)
bool ApplyRecord(ReplayState* rs, uint8_t type, const uint8_t* payload, size_t len) {
  Reader r{payload, len};
  switch (type) {
    case kPromise:
      return r.GetBallot(&rs->promised);
    case kAccepted:
      return r.GetBallot(&rs->accepted);
    case kAppend: {
      Entry e;
      if (!r.GetEntry(&e)) {
        return false;
      }
      rs->log.push_back(std::move(e));
      return true;
    }
    case kAppendBatch: {
      uint32_t count = 0;
      // Every serialized entry is at least 13 bytes, so a parseable record
      // never claims more entries than payload bytes (see kSnapshot).
      if (!r.GetU32(&count) || count > len) {
        return false;
      }
      for (uint32_t i = 0; i < count; ++i) {
        Entry e;
        if (!r.GetEntry(&e)) {
          return false;
        }
        rs->log.push_back(std::move(e));
      }
      return true;
    }
    case kTruncate: {
      // A logical length; the physical log starts at the compaction boundary.
      uint64_t idx = 0;
      if (!r.GetU64(&idx) || idx < rs->compacted ||
          idx > rs->compacted + rs->log.size() || idx < rs->decided) {
        return false;
      }
      rs->log.resize(idx - rs->compacted);
      return true;
    }
    case kDecide: {
      uint64_t idx = 0;
      if (!r.GetU64(&idx) || idx < rs->compacted || idx > rs->compacted + rs->log.size()) {
        return false;
      }
      rs->decided = idx;
      return true;
    }
    case kTrim: {
      uint64_t idx = 0;
      if (!r.GetU64(&idx) || idx > rs->decided) {
        return false;
      }
      if (idx > rs->compacted) {
        rs->log.erase(rs->log.begin(),
                      rs->log.begin() + static_cast<ptrdiff_t>(idx - rs->compacted));
        rs->compacted = idx;
      }
      return true;
    }
    case kSnapshot: {
      Ballot accepted;
      uint64_t up_to = 0;
      uint32_t count = 0;
      // Every serialized entry is at least 13 bytes, so a parseable record
      // can never claim more entries than payload bytes — rejecting here
      // bounds the loop and the vector growth on a corrupt frame.
      if (!r.GetBallot(&accepted) || !r.GetU64(&up_to) || !r.GetU32(&count) ||
          count > len) {
        return false;
      }
      std::vector<Entry> entries;
      for (uint32_t i = 0; i < count; ++i) {
        Entry e;
        if (!r.GetEntry(&e)) {
          return false;
        }
        entries.push_back(std::move(e));
      }
      if (up_to < rs->decided || up_to < rs->compacted || accepted < rs->accepted) {
        return false;
      }
      rs->accepted = accepted;
      rs->compacted = up_to;
      rs->decided = up_to;
      rs->log = std::move(entries);
      return true;
    }
    case kCheckpoint: {
      // Complete state: replaces everything replayed so far (the first
      // record of a rotated segment; any older segments still on disk are
      // leftovers of an interrupted rotation sweep).
      ReplayState next;
      uint32_t count = 0;
      // As with kSnapshot: entries are >= 13 bytes each, so `count > len`
      // only holds for frames GetEntry would reject anyway.
      if (!r.GetBallot(&next.promised) || !r.GetBallot(&next.accepted) ||
          !r.GetU64(&next.compacted) || !r.GetU64(&next.decided) ||
          !r.GetU32(&count) || count > len) {
        return false;
      }
      for (uint32_t i = 0; i < count; ++i) {
        Entry e;
        if (!r.GetEntry(&e)) {
          return false;
        }
        next.log.push_back(std::move(e));
      }
      if (next.decided < next.compacted ||
          next.decided > next.compacted + next.log.size()) {
        return false;
      }
      *rs = std::move(next);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

DurableStorage::DurableStorage(std::unique_ptr<wal::SegmentedWal> wal)
    : wal_(std::move(wal)) {}

DurableStorage::~DurableStorage() = default;

std::unique_ptr<DurableStorage> DurableStorage::Create(wal::Env* env,
                                                       const std::string& dir,
                                                       const wal::WalOptions& options,
                                                       std::string* error) {
  std::string why;
  auto wal = wal::SegmentedWal::CreateFresh(env, dir, options, &why);
  if (wal == nullptr && error != nullptr) {
    *error = why;
    return nullptr;
  }
  OPX_CHECK(wal != nullptr) << "cannot create WAL in " << dir << ": " << why;
  auto storage = std::unique_ptr<DurableStorage>(new DurableStorage(std::move(wal)));
  storage->WireCheckpoint();
  return storage;
}

std::unique_ptr<DurableStorage> DurableStorage::Recover(wal::Env* env,
                                                        const std::string& dir,
                                                        const wal::WalOptions& options,
                                                        std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  if (!wal::SegmentedWal::Exists(env, dir)) {
    return nullptr;  // nothing to recover; *error stays empty
  }
  ReplayState rs;
  auto wal = wal::SegmentedWal::Open(
      env, dir, options,
      [&rs](uint8_t type, const uint8_t* payload, size_t len) {
        return ApplyRecord(&rs, type, payload, len);
      },
      error);
  if (wal == nullptr) {
    return nullptr;  // corrupt — *error says why; do not re-create over it
  }
  auto storage = std::unique_ptr<DurableStorage>(new DurableStorage(std::move(wal)));
  storage->RestoreForRecovery(rs.promised, rs.accepted, rs.compacted, std::move(rs.log),
                              rs.decided);
  storage->WireCheckpoint();
  return storage;
}

std::unique_ptr<DurableStorage> DurableStorage::Create(const std::string& dir) {
  return Create(wal::PosixEnv(), dir);
}

std::unique_ptr<DurableStorage> DurableStorage::Recover(const std::string& dir) {
  return Recover(wal::PosixEnv(), dir);
}

std::vector<uint8_t> DurableStorage::EncodeCheckpoint() const {
  std::vector<uint8_t> payload(2 * kBallotBytes + 8 + 8 + EntriesBytes(log()));
  uint8_t* p = EncodeBallot(payload.data(), promised_round());
  p = EncodeBallot(p, accepted_round());
  util::StoreU64(p, compacted_idx());
  util::StoreU64(p + 8, decided_idx());
  p = EncodeEntries(p + 16, log());
  OPX_DCHECK(p == payload.data() + payload.size());
  return payload;
}

void DurableStorage::WireCheckpoint() {
  wal_->set_checkpoint(
      [this] { return std::make_pair(static_cast<uint8_t>(kCheckpoint), EncodeCheckpoint()); },
      [this] {
        // Cheap upper-bound-ish estimate: fixed fields + per-entry encoding
        // (stop-signs are rare and small). Rotation gating only needs the
        // right order of magnitude.
        return 64 + 16 * static_cast<uint64_t>(log().size());
      });
}

void DurableStorage::set_promised_round(const Ballot& b) {
  Journal(wal_.get(), kPromise, kBallotBytes, [&b](uint8_t* p) { return EncodeBallot(p, b); });
  Storage::set_promised_round(b);
}

void DurableStorage::set_accepted_round(const Ballot& b) {
  Journal(wal_.get(), kAccepted, kBallotBytes, [&b](uint8_t* p) { return EncodeBallot(p, b); });
  Storage::set_accepted_round(b);
}

void DurableStorage::Append(Entry e) {
  JournalEntries(wal_.get(), std::span<const Entry>(&e, 1));
  Storage::Append(std::move(e));
}

void DurableStorage::AppendAll(std::span<const Entry> entries) {
  JournalEntries(wal_.get(), entries);
  Storage::AppendAll(entries);
}

void DurableStorage::TruncateAndAppend(LogIndex len, std::span<const Entry> suffix) {
  JournalIndex(wal_.get(), kTruncate, len);
  JournalEntries(wal_.get(), suffix);
  Storage::TruncateAndAppend(len, suffix);
}

void DurableStorage::set_decided_idx(LogIndex idx) {
  JournalIndex(wal_.get(), kDecide, idx);
  Storage::set_decided_idx(idx);
}

void DurableStorage::Trim(LogIndex idx) {
  // Journal only effective trims (the base call no-ops at or below the
  // current boundary), so replay matches the in-memory transition exactly.
  const bool effective = idx > compacted_idx() && idx <= decided_idx();
  if (effective) {
    JournalIndex(wal_.get(), kTrim, idx);
  }
  Storage::Trim(idx);
  if (effective) {
    // The trimmed prefix may dominate the on-disk WAL; checkpoint into a
    // fresh segment and delete the fully-trimmed ones when worthwhile.
    wal_->MaybeCompact();
  }
}

void DurableStorage::ResetToSnapshot(const Ballot& accepted, LogIndex up_to,
                                     std::span<const Entry> suffix) {
  // One record carries the round, the boundary, and the suffix: recovery
  // applies the install atomically or not at all.
  Journal(wal_.get(), kSnapshot, kBallotBytes + 8 + EntriesBytes(suffix), [&](uint8_t* p) {
    p = EncodeBallot(p, accepted);
    util::StoreU64(p, up_to);
    return EncodeEntries(p + 8, suffix);
  });
  Storage::ResetToSnapshot(accepted, up_to, suffix);
  wal_->MaybeCompact();
}

bool DurableStorage::Sync() { return wal_->Commit(); }

namespace {

std::string BallotStr(const Ballot& b) {
  std::ostringstream out;
  out << b.n << "/" << b.priority << "/" << b.pid;
  return out.str();
}

}  // namespace

std::string DescribeWalRecord(uint8_t type, const uint8_t* payload, size_t len) {
  Reader r{payload, len};
  std::ostringstream out;
  switch (type) {
    case kPromise:
    case kAccepted: {
      Ballot b;
      if (!r.GetBallot(&b)) {
        return "";
      }
      out << (type == kPromise ? "promise" : "accepted") << " ballot=" << BallotStr(b);
      return out.str();
    }
    case kAppend: {
      Entry e;
      if (!r.GetEntry(&e)) {
        return "";
      }
      out << "append cmd=" << e.cmd_id << " payload=" << e.payload_bytes;
      if (e.IsStopSign()) {
        out << " stop-sign(c" << e.stop_sign->next_config << ")";
      }
      return out.str();
    }
    case kAppendBatch: {
      uint32_t count = 0;
      if (!r.GetU32(&count) || count > len) {
        return "";
      }
      out << "append-batch entries=" << count;
      for (uint32_t i = 0; i < count; ++i) {
        Entry e;
        if (!r.GetEntry(&e)) {
          return "";
        }
        if (i == 0) {
          out << " first_cmd=" << e.cmd_id;
        }
        if (i + 1 == count) {
          out << " last_cmd=" << e.cmd_id;
        }
        if (e.IsStopSign()) {
          out << " stop-sign(c" << e.stop_sign->next_config << ")";
        }
      }
      return out.str();
    }
    case kTruncate:
    case kDecide:
    case kTrim: {
      uint64_t idx = 0;
      if (!r.GetU64(&idx)) {
        return "";
      }
      out << (type == kTruncate ? "truncate len=" : type == kDecide ? "decide idx=" : "trim idx=")
          << idx;
      return out.str();
    }
    case kSnapshot: {
      Ballot accepted;
      uint64_t up_to = 0;
      uint32_t count = 0;
      if (!r.GetBallot(&accepted) || !r.GetU64(&up_to) || !r.GetU32(&count)) {
        return "";
      }
      out << "snapshot up_to=" << up_to << " entries=" << count
          << " accepted=" << BallotStr(accepted);
      return out.str();
    }
    case kCheckpoint: {
      Ballot promised, accepted;
      uint64_t compacted = 0, decided = 0;
      uint32_t count = 0;
      if (!r.GetBallot(&promised) || !r.GetBallot(&accepted) || !r.GetU64(&compacted) ||
          !r.GetU64(&decided) || !r.GetU32(&count)) {
        return "";
      }
      out << "checkpoint compacted=" << compacted << " decided=" << decided
          << " entries=" << count << " promised=" << BallotStr(promised)
          << " accepted=" << BallotStr(accepted);
      return out.str();
    }
    default:
      return "";
  }
}

uint64_t StorageFingerprint(const Storage& s) {
  uint64_t h = audit::Hash64(0x0a57'0a57ull);
  const Ballot& p = s.promised_round();
  const Ballot& a = s.accepted_round();
  h = audit::HashMix(h, p.n);
  h = audit::HashMix(h, p.priority);
  h = audit::HashMix(h, static_cast<uint64_t>(static_cast<uint32_t>(p.pid)));
  h = audit::HashMix(h, a.n);
  h = audit::HashMix(h, a.priority);
  h = audit::HashMix(h, static_cast<uint64_t>(static_cast<uint32_t>(a.pid)));
  h = audit::HashMix(h, s.compacted_idx());
  h = audit::HashMix(h, s.decided_idx());
  for (const Entry& e : s.log()) {
    h = audit::HashMix(h, audit::EntryContentHash(e));
  }
  return h;
}

}  // namespace opx::omni
