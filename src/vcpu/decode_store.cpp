#include "vcpu/decode_store.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace fc::cpu {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

std::vector<DecodeStore::Start>::iterator DecodeStore::find_start(
    std::vector<Start>& index, u32 offset) {
  auto it = std::lower_bound(
      index.begin(), index.end(), offset,
      [](const Start& s, u32 off) { return s.offset < off; });
  return it != index.end() && it->offset == offset ? it : index.end();
}

DecodeStore::DecodeStore(const mem::SharedFrameStore& pages)
    : pages_(&pages) {
  FC_CHECK(pages.frozen(), << "decode store over an unfrozen page store");
  for (u32 i = 0; i < kShards; ++i)
    shards_[i].index.resize((pages.page_count() + kShards - 1 - i) / kShards);
}

std::span<const isa::Instruction> DecodeStore::run(u32 page,
                                                   u32 offset) const {
  FC_CHECK(page < pages_->page_count() && offset < kPageSize,
           << "bad decode-store key " << page << ":" << offset);
  Shard& shard = shards_[page % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<Start>& index = shard.index[page / kShards];
  auto it = find_start(index, offset);
  if (it == index.end()) return decode(shard, index, page, offset);
  adoptions_.fetch_add(1, kRelaxed);
  return {shard.at(it->slot), it->remaining};
}

std::span<const isa::Instruction> DecodeStore::decode(
    Shard& shard, std::vector<Start>& index, u32 page, u32 offset) const {
  const std::span<const u8> bytes(pages_->page_data(page), kPageSize);
  std::vector<isa::Instruction> prefix;
  std::vector<u16> offsets;
  Start join;  // the indexed start this chain ran into, if any
  for (u32 at = offset; at < kPageSize;) {
    if (at != offset) {
      // Reached a start an earlier chain already decoded: the rest of this
      // chain is that start's run.
      auto it = find_start(index, at);
      if (it != index.end()) {
        join = *it;
        break;
      }
    }
    // Strictly in-page bytes, as BlockCache decodes: an instruction that
    // straddles the page end is left to the vCPU's slow path.
    isa::DecodeResult dec = isa::decode(bytes.subspan(at));
    if (!dec.ok()) break;
    prefix.push_back(dec.insn);
    offsets.push_back(static_cast<u16>(at));
    at += dec.insn.length;
    if (ends_block(dec.insn)) break;
  }
  insns_decoded_.fetch_add(prefix.size(), kRelaxed);
  if (prefix.empty()) return {};

  const u32 total = static_cast<u32>(prefix.size()) + join.remaining;
  const u32 slot = allocate(shard, total);
  isa::Instruction* out = shard.at(slot);
  std::copy(prefix.begin(), prefix.end(), out);
  if (join.remaining != 0)
    std::copy_n(shard.at(join.slot), join.remaining, out + prefix.size());

  // Every new start is absent from the index (the walk stopped at the first
  // indexed one) and offsets ascend, so one merge keeps the index sorted.
  const std::size_t old_size = index.size();
  const std::size_t old_capacity = index.capacity();
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    index.push_back({slot + static_cast<u32>(i), offsets[i],
                     static_cast<u16>(total - i)});
  }
  std::inplace_merge(index.begin(),
                     index.begin() + static_cast<std::ptrdiff_t>(old_size),
                     index.end(), [](const Start& a, const Start& b) {
                       return a.offset < b.offset;
                     });
  starts_.fetch_add(offsets.size(), kRelaxed);
  resident_bytes_.fetch_add((index.capacity() - old_capacity) * sizeof(Start),
                            kRelaxed);
  return {out, total};
}

u32 DecodeStore::allocate(Shard& shard, u32 count) const {
  if (shard.chunk_used + count > kChunkInsns) {
    shard.chunks.push_back(std::make_unique<isa::Instruction[]>(kChunkInsns));
    shard.chunk_used = 0;
    resident_bytes_.fetch_add(kChunkInsns * sizeof(isa::Instruction),
                              kRelaxed);
  }
  const u32 slot = static_cast<u32>(shard.chunks.size() - 1) * kChunkInsns +
                   shard.chunk_used;
  shard.chunk_used += count;
  return slot;
}

DecodeStore::Stats DecodeStore::stats() const {
  Stats s;
  s.insns_decoded = insns_decoded_.load(kRelaxed);
  s.adoptions = adoptions_.load(kRelaxed);
  s.starts = starts_.load(kRelaxed);
  s.resident_bytes = resident_bytes_.load(kRelaxed);
  return s;
}

}  // namespace fc::cpu
