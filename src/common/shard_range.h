// The one destination-partition rule of the round epilogue.
//
// The epilogue's parallel stage splits the shards into `parts` contiguous
// destination ranges: the outbox drain deposits into the rings of its range
// (core::NetworkedScheduler::FlushRoundPartition) and the WAL encodes the
// sealed lanes of the same range (durability::WalManager::
// PersistSealedPartition). Both call this function, so a shard's ring and
// its WAL lane always belong to the same partition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/types.h"

namespace stableshard {

/// Contiguous destination-shard range owned by flush partition `part` of
/// `parts`: ranges cover [0, shards) disjointly, so per-destination state is
/// touched by exactly one partition whatever `parts` is — which is why the
/// partition count never shows in the results. parts = 1 owns every shard.
inline std::pair<ShardId, ShardId> FlushShardRange(ShardId shards,
                                                   std::uint32_t part,
                                                   std::uint32_t parts) {
  const ShardId chunk = (shards + parts - 1) / parts;
  const ShardId begin = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(chunk) * part,
                              shards));
  const ShardId end = static_cast<ShardId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(begin) + chunk,
                              shards));
  return {begin, end};
}

}  // namespace stableshard
