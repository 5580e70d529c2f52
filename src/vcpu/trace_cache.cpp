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
bool fusable_alu(const isa::Instruction& insn) {
  const UOp kind = simple_uop(insn);
  return kind >= UOp::kAddRR && kind <= UOp::kCmpImm;
}

/// Classify for the dispatcher (see OpKind): the simple ops, direct
/// branches and RDTSC. kCli/kSti are deliberately kSlow — unmasking
/// interrupts can make a pending IRQ due at the very next boundary, which
/// only the full guard notices.
OpKind classify_op(const isa::Instruction& insn) {
  if (simple_uop(insn) != UOp::kSlow) return OpKind::kPure;
  switch (insn.op) {
    case Op::kJmp:
    case Op::kJmpShort:
    case Op::kJz:
    case Op::kJnz:
    case Op::kJzNear:
    case Op::kJnzNear:
    case Op::kRdtsc:
      return OpKind::kPure;
    default:
      return OpKind::kSlow;
  }
}

/// Resolve a branch target to an in-trace micro-op index: the next op on
/// the predicted chain or the trace entry (the hot-loop back edge), exactly
/// the two stay-in-dispatch cases the dispatcher recognised before lowering.
u16 target_index(GVirt target, const Trace& tr, std::size_t j) {
  if (j + 1 < tr.ops.size() && target == tr.ops[j + 1].va)
    return static_cast<u16>(j + 1);
  if (target == tr.entry_va) return 0;
  return kNoTarget;
}

/// Lower the finished op list into the flat micro-op array the dispatcher
/// executes (1:1, same indices). All operand extraction, rel_target
/// arithmetic and in-trace branch resolution happens here, once.
void lower(Trace& tr) {
  const std::size_t n = tr.ops.size();
  tr.uops.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    const TraceOp& op = tr.ops[j];
    const isa::Instruction& insn = op.insn;
    MicroOp u;
    u.va = op.va;
    u.fall_va = op.va + insn.length;
    u.slow_index = static_cast<u16>(j);
    if (op.fused) {
      u.kind = UOp::kFused;
      const bool want_zf =
          op.jcc.op == Op::kJz || op.jcc.op == Op::kJzNear;
      u.aux = static_cast<u8>(simple_uop(insn)) | (want_zf ? 0x80 : 0);
      u.r1 = static_cast<u8>(insn.r1);
      u.r2 = static_cast<u8>(insn.r2);
      u.imm = insn.imm;
      u.jcc_va = op.jcc_va;
      u.taken_va = op.taken_va;
      u.fall_va = op.fall_va;
      u.taken_idx = target_index(op.taken_va, tr, j);
      u.fall_idx = target_index(op.fall_va, tr, j);
    } else if (op.kind == OpKind::kPure) {
      u.r1 = static_cast<u8>(insn.r1);
      u.r2 = static_cast<u8>(insn.r2);
      u.imm = insn.imm;
      switch (insn.op) {
        case Op::kRdtsc:
          u.kind = UOp::kRdtsc;
          break;
        case Op::kJmp:
        case Op::kJmpShort: {
          const GVirt target = insn.rel_target(op.va);
          u.taken_va = target;
          u.taken_idx = target_index(target, tr, j);
          if (u.taken_idx == static_cast<u16>(j + 1)) {
            // The chain follows this jump anyway: retire-only micro-op,
            // with the architectural next-pc being the jump target.
            u.kind = UOp::kNop;
            u.fall_va = target;
          } else {
            u.kind = UOp::kJmp;
          }
          break;
        }
        case Op::kJz:
        case Op::kJzNear:
        case Op::kJnz:
        case Op::kJnzNear:
          u.kind = UOp::kJcc;
          u.aux = (insn.op == Op::kJz || insn.op == Op::kJzNear) ? 1 : 0;
          u.taken_va = insn.rel_target(op.va);
          u.taken_idx = target_index(u.taken_va, tr, j);
          u.fall_idx = target_index(u.fall_va, tr, j);
          break;
        default:
          // classify_op admits nothing else: a register-only simple op.
          u.kind = simple_uop(insn);
          FC_CHECK(u.kind != UOp::kSlow, << "unloweable pure op");
          break;
      }
    } else {
      u.r1 = static_cast<u8>(insn.r1);
      u.r2 = static_cast<u8>(insn.r2);
      switch (insn.op) {
        case Op::kPush:
          u.kind = UOp::kPush;
          break;
        case Op::kPop:
          u.kind = UOp::kPop;
          break;
        case Op::kLoad:
          u.kind = UOp::kLoad;
          u.imm = static_cast<u32>(insn.disp);
          break;
        case Op::kStore:
          u.kind = UOp::kStore;
          u.imm = static_cast<u32>(insn.disp);
          break;
        case Op::kLoadAbs:
          u.kind = UOp::kLoadAbs;
          u.r1 = static_cast<u8>(isa::Reg::A);
          u.imm = insn.imm;
          break;
        case Op::kStoreAbs:
          u.kind = UOp::kStoreAbs;
          u.r2 = static_cast<u8>(isa::Reg::A);
          u.imm = insn.imm;
          break;
        case Op::kCall:
          u.kind = UOp::kCall;
          u.taken_va = insn.rel_target(op.va);
          u.taken_idx = target_index(u.taken_va, tr, j);
          break;
        case Op::kRet:
          u.kind = UOp::kRet;
          break;
        case Op::kLeave:
          u.kind = UOp::kLeave;
          break;
        default:
          // Environment calls, interrupt flow, masking, indirect calls, the
          // memory-form OR: exec_insn with a full guard re-run.
          u.kind = UOp::kSlow;
          break;
      }
    }
    tr.uops.push_back(u);
  }
  // Segment lengths for the batch dispatcher: seg = number of consecutive
  // simple micro-ops starting here (see the UOp contract — everything up to
  // kCmpImm). Computed backwards so each op sees its suffix run.
  u16 run = 0;
  for (std::size_t j = n; j-- > 0;) {
    MicroOp& u = tr.uops[j];
    run = static_cast<u8>(u.kind) <= static_cast<u8>(UOp::kCmpImm)
              ? static_cast<u16>(run + 1)
              : 0;
    u.seg = run;
  }
}

TraceOp make_op(const isa::Instruction& insn, GVirt va) {
  TraceOp op;
  op.insn = insn;
  op.va = va;
  op.kind = classify_op(insn);
  return op;
}

/// Convert the previous op into a fused ALU+Jcc pair if it is the adjacent
/// register-only ALU producing the flags this branch tests.
bool try_fuse(TraceOp& prev, const isa::Instruction& jcc, GVirt jcc_va) {
  if (prev.fused || !fusable_alu(prev.insn)) return false;
  if (prev.va + prev.insn.length != jcc_va) return false;
  prev.fused = true;
  prev.kind = OpKind::kPure;  // both halves register-only by the checks above
  prev.jcc = jcc;
  prev.jcc_va = jcc_va;
  prev.taken_va = jcc.rel_target(jcc_va);
  prev.fall_va = jcc_va + jcc.length;
  return true;
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
         tr.ops.size() < kMaxTraceOps) {
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
      if (tr.ops.size() >= kMaxTraceOps) {
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
          if (!tr.ops.empty() && try_fuse(tr.ops.back(), insn, cur))
            ++stats_.fused_built;
          else
            tr.ops.push_back(make_op(insn, cur));
          successor = predicted;
          have_successor = true;
          break;
        }
        case Op::kJmp:
        case Op::kJmpShort:
        case Op::kCall:
          tr.ops.push_back(make_op(insn, cur));
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
          tr.ops.push_back(make_op(insn, cur));
          stop_chain = true;
          break;
        case Op::kUd2:
          // Never inline the trap; the slow path raises it with exact
          // fault-pc semantics.
          stop_chain = true;
          break;
        default:
          tr.ops.push_back(make_op(insn, cur));
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

  if (tr.ops.empty()) {
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

  lower(tr);

  [[maybe_unused]] const u32 ops = static_cast<u32>(tr.ops.size());
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
