#include "vcpu/trace_cache.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace fc::cpu {

using isa::Op;

namespace {

constexpr u64 trace_key(HostFrame frame, u32 offset) {
  return (static_cast<u64>(frame) << kPageShift) | offset;
}

/// ALU ops whose fused execution is exact: register-only, no memory access,
/// no fault path, and the only flag effect is the ZF the adjacent Jcc
/// consumes (the flags-dead proof in DESIGN.md — no op between the pair can
/// observe an intermediate flags state because there is none). That is every
/// simple micro-op from kAddRR on: the ZF-writing ALU ops.
bool fusable_alu(UOp kind) {
  return kind >= UOp::kAddRR && kind <= UOp::kCmpImm;
}

/// Lower one instruction at `va` to its micro-op. Branch targets are left
/// unresolved (finish_trace resolves them once the trace is complete).
/// RDTSC and direct branches get their own micro-ops, register-only and
/// memory ops theirs; kCli/kSti are deliberately kSlow — unmasking
/// interrupts can make a pending IRQ due at the very next boundary, which
/// only the full guard notices.
MicroOp lower_op(const isa::Instruction& insn, GVirt va, Trace& tr) {
  MicroOp u;
  u.r1 = static_cast<u8>(insn.r1);
  u.r2 = static_cast<u8>(insn.r2);
  u.imm = insn.imm;
  u.va = va;
  u.fall_va = va + insn.length;
  if (const UOp simple = simple_uop(insn); simple != UOp::kSlow) {
    u.kind = simple;
    return u;
  }
  if (const UOp mem = mem_uop(insn); mem != UOp::kSlow) {
    u.kind = mem;
    u.imm = mem_imm(insn, u.fall_va);
    if (mem == UOp::kCall) u.taken_va = insn.rel_target(va);
    return u;
  }
  switch (insn.op) {
    case Op::kRdtsc:
      u.kind = UOp::kRdtsc;
      break;
    case Op::kJmp:
    case Op::kJmpShort:
      u.kind = UOp::kJmp;
      u.taken_va = insn.rel_target(va);
      break;
    case Op::kJz:
    case Op::kJzNear:
    case Op::kJnz:
    case Op::kJnzNear:
      u.kind = UOp::kJcc;
      u.aux = (insn.op == Op::kJz || insn.op == Op::kJzNear) ? 0x80 : 0;
      u.taken_va = insn.rel_target(va);
      break;
    default:
      // Environment calls, interrupt flow, masking, indirect calls, the
      // memory-form OR: exec_insn with a full guard re-run.
      u.kind = UOp::kSlow;
      u.slow_index = static_cast<u16>(tr.slow.size());
      tr.slow.push_back(insn);
      break;
  }
  return u;
}

/// Rewrite the previous micro-op into a fused ALU+Jcc pair if it is the
/// adjacent register-only ALU producing the flags this branch tests.
bool try_fuse(MicroOp& prev, const isa::Instruction& jcc, GVirt jcc_va) {
  if (!fusable_alu(prev.kind) || prev.fall_va != jcc_va) return false;
  const bool want_zf = jcc.op == Op::kJz || jcc.op == Op::kJzNear;
  prev.aux = static_cast<u8>(prev.kind) | (want_zf ? 0x80 : 0);
  prev.kind = UOp::kFused;
  prev.jcc_va = jcc_va;
  prev.taken_va = jcc.rel_target(jcc_va);
  prev.fall_va = jcc_va + jcc.length;
  return true;
}

/// Resolve a branch target to an in-trace micro-op index: the next op on
/// the predicted chain or the trace entry (the hot-loop back edge), the
/// two stay-in-dispatch cases.
u16 target_index(GVirt target, const Trace& tr, std::size_t j) {
  if (j + 1 < tr.uops.size() && target == tr.uops[j + 1].va)
    return static_cast<u16>(j + 1);
  if (target == tr.entry_va) return 0;
  return kNoTarget;
}

/// The closing pass over a stitched trace, backwards so each op sees its
/// successor's final form: resolve in-trace branch targets to micro-op
/// indices, and set each op's `seg` — the number of consecutive simple
/// micro-ops starting there (see the UOp contract: everything up to
/// kCmpImm). The op array is the trace's bulk, so it drops its growth
/// slack here.
void finish_trace(Trace& tr) {
  tr.uops.shrink_to_fit();
  u16 run = 0;
  for (std::size_t j = tr.uops.size(); j-- > 0;) {
    MicroOp& u = tr.uops[j];
    switch (u.kind) {
      case UOp::kJmp:
        u.taken_idx = target_index(u.taken_va, tr, j);
        if (u.taken_idx == static_cast<u16>(j + 1)) {
          // The chain follows this jump anyway: retire-only micro-op, with
          // the architectural next-pc being the jump target.
          u.kind = UOp::kNop;
          u.fall_va = u.taken_va;
        }
        break;
      case UOp::kJcc:
      case UOp::kFused:
        u.taken_idx = target_index(u.taken_va, tr, j);
        u.fall_idx = target_index(u.fall_va, tr, j);
        break;
      case UOp::kCall:
        u.taken_idx = target_index(u.taken_va, tr, j);
        break;
      default:
        break;
    }
    run = u.kind <= UOp::kCmpImm ? static_cast<u16>(run + 1) : 0;
    u.seg = run;
  }
}

void add_constituent(Trace& tr, HostFrame frame, u32 generation) {
  for (const auto& [f, g] : tr.constituents)
    if (f == frame) return;
  tr.constituents.emplace_back(frame, generation);
}

void add_boundary(Trace& tr, GVirt vpage, HostFrame frame) {
  for (const auto& [v, f] : tr.boundaries)
    if (v == vpage) return;
  tr.boundaries.emplace_back(vpage, frame);
}

}  // namespace

Trace* TraceCache::find(HostFrame frame, u32 offset) {
  const u64 key = trace_key(frame, offset);
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) return nullptr;
    if (keys_[i] != key) continue;
    Trace& tr = arena_[slots_[i]];
    if (!tr.live) return nullptr;
    for (const auto& [f, g] : tr.constituents) {
      if (gen(f) == g) continue;
      // A constituent frame's bytes changed since the build: retire this
      // trace (and only this trace — unrelated entries never rescan).
      tr.live = false;
      --live_count_;
      ++stats_.retired;
      FC_TRACE_EVENT(kTraceRetire, cause_flag(f), 0, f, tr.entry_va, 0, 0);
      return nullptr;
    }
    return &tr;
  }
}

bool TraceCache::validate_translations(Trace& tr, mem::Mmu& mmu) {
  const u64 fill = mmu.fill_version();
  const u64 ept_gen = mmu.ept().generation();
  // Fast mode: nothing in the TLB changed since the last establish, so every
  // boundary that was resident then still is (fill_version's contract), and
  // unchanged EPT generation keeps the cached tags valid.
  if (tr.tlb_version == fill && tr.ept_gen == ept_gen) return true;
  // Establish mode: prove each boundary page would hit right now, without
  // filling or counting anything. The entry page needs no probe — the
  // caller just translated it.
  for (const auto& [vpage, frame] : tr.boundaries)
    if (!mmu.tlb_resident(vpage, frame)) return false;
  tr.tlb_version = fill;
  tr.ept_gen = ept_gen;
  return true;
}

const Trace* TraceCache::build(mem::HostMemory& host, const mem::Mmu& mmu,
                               const BlockCache& blocks, HostFrame frame,
                               u32 offset, GVirt va) {
  if (arena_.size() >= kMaxTraces) {
    FC_TRACE_EVENT(kTraceRetire, 0, 0, 0, 0, 0, 0);
    clear();
    ++stats_.inval_capacity;
  }

  Trace tr;
  tr.frame = frame;
  tr.offset = static_cast<u16>(offset);
  tr.entry_va = va;

  GVirt at_va = va;
  HostFrame at_frame = frame;
  u32 at_off = offset;
  bool stop_chain = false;
  while (!stop_chain && tr.blocks < kMaxTraceBlocks &&
         tr.uops.size() < kMaxTraceOps) {
    const DecodedBlock* block = blocks.peek(at_frame, at_off);
    if (block == nullptr) break;  // chain link never decoded: trace ends
    ++tr.blocks;
    add_constituent(tr, at_frame, gen(at_frame));
    if (page_base(at_va) != page_base(va))
      add_boundary(tr, page_base(at_va), at_frame);

    GVirt cur = at_va;
    bool have_successor = false;
    GVirt successor = 0;
    for (const isa::Instruction& insn : block->insns) {
      if (tr.uops.size() >= kMaxTraceOps) {
        stop_chain = true;
        break;
      }
      if (kPageSize - page_offset(cur) < isa::kMaxInstructionLength) {
        // The interpreter probes (and charges) the next page before
        // executing from the page-tail region; leave those instructions to
        // the block tier, which performs that probe.
        stop_chain = true;
        break;
      }
      const GVirt next = cur + insn.length;
      have_successor = false;
      switch (insn.op) {
        case Op::kJz:
        case Op::kJnz:
        case Op::kJzNear:
        case Op::kJnzNear: {
          // Backward-taken / forward-not-taken: loop back edges are
          // predicted taken, forward exits predicted fallthrough.
          const GVirt predicted =
              insn.disp < 0 ? insn.rel_target(cur) : next;
          if (!tr.uops.empty() && try_fuse(tr.uops.back(), insn, cur))
            ++stats_.fused_built;
          else
            tr.uops.push_back(lower_op(insn, cur, tr));
          successor = predicted;
          have_successor = true;
          break;
        }
        case Op::kJmp:
        case Op::kJmpShort:
        case Op::kCall:
          tr.uops.push_back(lower_op(insn, cur, tr));
          successor = insn.rel_target(cur);
          have_successor = true;
          break;
        case Op::kCallTab:
        case Op::kRet:
        case Op::kInt:
        case Op::kIret:
        case Op::kHlt:
          // Indirect or environment-driven control flow: include the op (a
          // dispatch ending in RET still runs its body at trace speed) and
          // end the trace where prediction ends.
          tr.uops.push_back(lower_op(insn, cur, tr));
          stop_chain = true;
          break;
        case Op::kUd2:
          // Never inline the trap; the slow path raises it with exact
          // fault-pc semantics.
          stop_chain = true;
          break;
        default:
          tr.uops.push_back(lower_op(insn, cur, tr));
          successor = next;
          have_successor = true;
          break;
      }
      cur = next;
      if (stop_chain) break;
    }
    if (stop_chain || !have_successor) break;
    if (successor == tr.entry_va) break;  // runtime self-loop closes here
    auto next_frame = mmu.probe_page(page_base(successor));
    if (!next_frame) break;
    at_va = successor;
    at_frame = *next_frame;
    at_off = page_offset(successor);
  }

  if (tr.uops.empty()) {
    ++stats_.build_failures;
    return nullptr;
  }

  for (const auto& [f, g] : tr.constituents) {
    if (f >= frame_gens_.size()) {
      frame_gens_.resize(f + 1, 0);
      frame_live_.resize(f + 1, 0);
      frame_cause_.resize(f + 1, 0);
    }
    frame_live_[f] = 1;
    host.watch_code_frame(f);
  }

  finish_trace(tr);

  [[maybe_unused]] const u32 ops = static_cast<u32>(tr.uops.size());
  [[maybe_unused]] const u32 chained = tr.blocks;
  const u64 key = trace_key(frame, offset);
  arena_.push_back(std::move(tr));
  const u32 index = static_cast<u32>(arena_.size() - 1);
  for (u32 i = probe_start(key);; i = (i + 1) & (kTableSize - 1)) {
    if (slots_[i] == kEmptySlot) {
      slots_[i] = index;
      keys_[i] = key;
      break;
    }
    if (keys_[i] == key) {
      slots_[i] = index;  // supersede a retired entry in place
      break;
    }
  }
  ++live_count_;
  ++stats_.built;
  FC_TRACE_EVENT(kTraceBuild, 0, 0, va, ops, frame, chained);
  return &arena_[index];
}

void TraceCache::on_code_frame_write(HostFrame frame,
                                     mem::FrameWriteCause cause) {
  // Any watched-frame write stops in-flight dispatches at their next op
  // guard, even when no live trace spans this frame (over-approximate but
  // cheap; the block cache shares the watch set).
  ++write_epoch_;
  if (frame >= frame_live_.size() || frame_live_[frame] == 0) return;
  frame_live_[frame] = 0;
  ++frame_gens_[frame];
  switch (cause) {
    case mem::FrameWriteCause::kGuestStore:
      ++stats_.inval_guest_write;
      frame_cause_[frame] = 1;
      break;
    case mem::FrameWriteCause::kCodeLoad:
      ++stats_.inval_code_load;
      frame_cause_[frame] = 2;
      break;
    case mem::FrameWriteCause::kRecycle:
      ++stats_.inval_recycle;
      frame_cause_[frame] = 3;
      break;
  }
}

void TraceCache::clear() {
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  arena_.clear();
  live_count_ = 0;
  std::fill(frame_live_.begin(), frame_live_.end(), 0);
}

}  // namespace fc::cpu
