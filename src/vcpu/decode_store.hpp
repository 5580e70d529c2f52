// Decode store: the decoded instructions of shared code pages, decoded once
// per image and read by every VM booted from it.
//
// A fleet's VMs execute the same kernel bytes out of the same
// SharedFrameStore pages (the boot image, module bytes, every view's shadow
// pages). A store page never changes — a VM's first divergent write promotes
// its frame to private storage instead — so decoding it is a pure function
// of (store page, offset) and a decode can never go stale. One DecodeStore
// per core::SharedImage holds those decodes; BlockCache::build adopts a span
// of them for every frame HostMemory::is_shared() reports, instead of
// decoding the bytes again.
//
// Validity stays with each VM: its BlockCache keeps its own (frame, offset)
// table, frame generations, heat and write barrier. A COW promotion, an SMC
// store or a recovery rewrite bumps that VM's generation; the frame is then
// private and the rebuild decodes into the VM's own buffer, while sibling
// VMs keep reading the store.
//
// Layout: suffix-shared runs, one index entry per distinct instruction
// start. A run is a contiguous array of instructions decoded from one start
// to where a block ends (ends_block, an undecodable byte or the page end),
// never capped at a block length; every instruction start inside a run is
// indexed. The block at X is the run suffix from X, so the blocks entered at
// X and at any later start of the same run share storage. A new chain that
// reaches an already indexed start copies that start's run after its own
// prefix (the only duplication; it keeps every block one contiguous span).
// No run exceeds kPageSize instructions: offsets strictly increase within a
// page.
//
// Concurrency: the store is shared by fleet workers. Each page belongs to
// one of kShards shards, whose mutex guards the page's index and the shard's
// instruction chunks. Chunks never move or shrink, so a returned span stays
// valid for the store's lifetime without holding any lock.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "isa/isa.hpp"
#include "mem/shared_frames.hpp"
#include "support/types.hpp"

namespace fc::cpu {

/// Does a block end after this instruction? Control flow ends it, and so
/// does UD2: it always traps, and under FACE-CHANGE the bytes after it are
/// usually more filler. The one block-termination rule for private decodes
/// and the decode store alike.
inline bool ends_block(const isa::Instruction& insn) {
  return isa::is_control_flow(insn.op) || insn.op == isa::Op::kUd2;
}

class DecodeStore {
 public:
  /// `pages` must be frozen and must outlive the store.
  explicit DecodeStore(const mem::SharedFrameStore& pages);
  DecodeStore(const DecodeStore&) = delete;
  DecodeStore& operator=(const DecodeStore&) = delete;

  /// The decoded run at (store page, offset): instructions from `offset` up
  /// to and including the block terminator, uncapped (the caller caps at its
  /// block length). Decodes on first request for a start, thread-safe.
  /// Empty when the bytes at `offset` do not decode.
  std::span<const isa::Instruction> run(u32 page, u32 offset) const;

  const mem::SharedFrameStore& pages() const { return *pages_; }

  /// Host-side counters. They depend on which VM asks first, so they vary
  /// with the fleet's worker count and never reach per-VM output.
  struct Stats {
    u64 insns_decoded = 0;   // isa::decode work actually performed
    u64 adoptions = 0;       // run() calls served from the index
    u64 starts = 0;          // distinct (page, offset) starts indexed
    u64 resident_bytes = 0;  // instruction chunks + index entries
  };
  Stats stats() const;

 private:
  static constexpr u32 kShards = 16;
  /// Instructions per storage chunk: one whole-page run always fits.
  static constexpr u32 kChunkInsns = kPageSize;

  /// One indexed instruction start: shard slot `slot` heads `remaining`
  /// instructions that run to the end of its run.
  struct Start {
    u32 slot = 0;  // chunk index * kChunkInsns + position in the chunk
    u16 offset = 0;
    u16 remaining = 0;
  };

  /// The pages whose id is congruent to the shard's number mod kShards.
  struct alignas(64) Shard {
    std::mutex mutex;
    /// Per page, by id / kShards: its starts sorted by offset. Sized once.
    std::vector<std::vector<Start>> index;
    std::vector<std::unique_ptr<isa::Instruction[]>> chunks;
    u32 chunk_used = kChunkInsns;  // in chunks.back(); full = none yet

    isa::Instruction* at(u32 slot) const {
      return chunks[slot / kChunkInsns].get() + slot % kChunkInsns;
    }
  };

  /// The entry for `offset` in a page's sorted index, or index.end().
  static std::vector<Start>::iterator find_start(std::vector<Start>& index,
                                                 u32 offset);
  std::span<const isa::Instruction> decode(Shard& shard,
                                           std::vector<Start>& index, u32 page,
                                           u32 offset) const;
  /// Reserve `count` contiguous instructions; returns the first slot.
  u32 allocate(Shard& shard, u32 count) const;

  const mem::SharedFrameStore* pages_;
  mutable std::array<Shard, kShards> shards_;

  mutable std::atomic<u64> insns_decoded_{0};
  mutable std::atomic<u64> adoptions_{0};
  mutable std::atomic<u64> starts_{0};
  mutable std::atomic<u64> resident_bytes_{0};
};

}  // namespace fc::cpu
