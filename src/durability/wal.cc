#include "durability/wal.h"

#include <utility>

#include "common/check.h"
#include "common/shard_range.h"

namespace stableshard::durability {

namespace {

void EncodePayload(Blob& out, const WalRecord& record) {
  AppendU8(out, static_cast<std::uint8_t>(record.type));
  AppendU64(out, record.seq);
  AppendU64(out, record.txn);
  AppendU64(out, record.round);
  if (record.type == WalRecordType::kCommit) {
    AppendU64(out, record.payload_digest);
    AppendU32(out, static_cast<std::uint32_t>(record.actions.size()));
    for (const chain::Action& action : record.actions) {
      AppendU64(out, action.account);
      AppendU8(out, static_cast<std::uint8_t>(action.kind));
      AppendI64(out, action.amount);
    }
  }
}

bool DecodePayload(const std::uint8_t* data, std::size_t size,
                   WalRecord* out) {
  ByteReader reader(data, size);
  std::uint8_t type = 0;
  if (!reader.ReadU8(&type)) return false;
  if (type != static_cast<std::uint8_t>(WalRecordType::kCommit) &&
      type != static_cast<std::uint8_t>(WalRecordType::kAbort)) {
    return false;
  }
  out->type = static_cast<WalRecordType>(type);
  if (!reader.ReadU64(&out->seq)) return false;
  if (!reader.ReadU64(&out->txn)) return false;
  if (!reader.ReadU64(&out->round)) return false;
  out->payload_digest = 0;
  out->actions.clear();
  if (out->type == WalRecordType::kCommit) {
    if (!reader.ReadU64(&out->payload_digest)) return false;
    std::uint32_t n_actions = 0;
    if (!reader.ReadU32(&n_actions)) return false;
    out->actions.reserve(n_actions);
    for (std::uint32_t i = 0; i < n_actions; ++i) {
      chain::Action action;
      std::uint8_t kind = 0;
      if (!reader.ReadU64(&action.account)) return false;
      if (!reader.ReadU8(&kind)) return false;
      if (!reader.ReadI64(&action.amount)) return false;
      action.kind = static_cast<chain::ActionKind>(kind);
      out->actions.push_back(action);
    }
  }
  // Every payload byte must belong to the record: trailing garbage inside
  // a checksummed frame is corruption, not a tail.
  return reader.remaining() == 0;
}

}  // namespace

void AppendWalRecord(Blob& wal, const WalRecord& record) {
  Blob payload;
  EncodePayload(payload, record);
  AppendU32(wal, static_cast<std::uint32_t>(payload.size()));
  AppendU64(wal, Fnv1a(payload.data(), payload.size()));
  wal.insert(wal.end(), payload.begin(), payload.end());
}

WalReader::Status WalReader::Next(WalRecord* out) {
  if (reader_.remaining() == 0) return Status::kEndOfLog;
  // Frame header (u32 size + u64 checksum) or body cut short: a torn
  // final write — the prefix before it is still fully valid. Probe on a
  // copy so `offset()` keeps pointing at the last complete record.
  ByteReader probe = reader_;
  std::uint32_t size = 0;
  std::uint64_t checksum = 0;
  if (!probe.ReadU32(&size)) return Status::kTornTail;
  if (!probe.ReadU64(&checksum)) return Status::kTornTail;
  const std::uint8_t* payload = probe.ReadSpan(size);
  if (payload == nullptr) return Status::kTornTail;
  // The frame is complete: checksum or decode failure now means flipped
  // bits, not a tail.
  if (Fnv1a(payload, size) != checksum) return Status::kCorrupt;
  if (!DecodePayload(payload, size, out)) return Status::kCorrupt;
  reader_ = probe;
  return Status::kRecord;
}

WalManager::WalManager(ShardId shards, MemoryStorage* storage)
    : storage_(storage),
      staging_(shards),
      sealed_(shards),
      next_seq_(shards, 0),
      durable_seq_(shards, 0),
      records_by_shard_(shards, 0) {
  SSHARD_CHECK(storage != nullptr);
  SSHARD_CHECK(storage->wal.size() == shards &&
               "storage shard count mismatch");
}

void WalManager::StageCommit(ShardId dest, TxnId txn, Round round,
                             std::uint64_t payload_digest,
                             const std::vector<chain::Action>& actions) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.seq = ++next_seq_[dest];
  record.txn = txn;
  record.round = round;
  record.payload_digest = payload_digest;
  record.actions = actions;
  staging_[dest].push_back(std::move(record));
}

void WalManager::StageAbort(ShardId dest, TxnId txn, Round round) {
  WalRecord record;
  record.type = WalRecordType::kAbort;
  record.seq = ++next_seq_[dest];
  record.txn = txn;
  record.round = round;
  staging_[dest].push_back(std::move(record));
}

void WalManager::Seal(Round round, std::uint32_t parts) {
  SSHARD_CHECK(parts >= 1);
  SSHARD_CHECK(sealed_round_ == kNoRound && "sealing over an open seal");
  staging_.swap(sealed_);
  sealed_round_ = round;
  sealed_parts_ = parts;
}

void WalManager::PersistSealedPartition(std::uint32_t part) {
  SSHARD_DCHECK(part < sealed_parts_);
  // The outbox drain's range split: each shard's lane is touched by
  // exactly one partition.
  const auto [begin, end] = FlushShardRange(shard_count(), part, sealed_parts_);
  for (ShardId shard = begin; shard < end; ++shard) {
    for (const WalRecord& record : sealed_[shard]) {
      AppendWalRecord(storage_->wal[shard], record);
    }
    records_by_shard_[shard] += sealed_[shard].size();
  }
}

void WalManager::FinishSealedRound() {
  SSHARD_CHECK(sealed_round_ != kNoRound && "finish without a seal");
  const Round round = sealed_round_;
  for (ShardId shard = 0; shard < shard_count(); ++shard) {
    std::vector<WalRecord>& lane = sealed_[shard];
    if (lane.empty()) continue;
    durable_seq_[shard] = lane.back().seq;
    if (on_durable_) on_durable_(shard, durable_seq_[shard], round);
    lane.clear();
  }
  sealed_round_ = kNoRound;
  sealed_parts_ = 0;
}

std::uint64_t WalManager::records_persisted() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : records_by_shard_) total += count;
  return total;
}

}  // namespace stableshard::durability
