#include "vcpu/vcpu.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace fc::cpu {

using isa::Op;
using isa::Reg;

void Vcpu::add_breakpoint(GVirt pc) {
  if (!has_breakpoint(pc)) breakpoints_.push_back(pc);
  ++bp_epoch_;
}

void Vcpu::remove_breakpoint(GVirt pc) {
  breakpoints_.erase(std::remove(breakpoints_.begin(), breakpoints_.end(), pc),
                     breakpoints_.end());
  ++bp_epoch_;
}

bool Vcpu::has_breakpoint(GVirt pc) const {
  return std::find(breakpoints_.begin(), breakpoints_.end(), pc) !=
         breakpoints_.end();
}

bool Vcpu::breakpoint_in(Trace& tr) {
  if (tr.bp_epoch != bp_epoch_) {
    tr.bp_epoch = bp_epoch_;
    tr.bp_inside = std::any_of(
        tr.uops.begin(), tr.uops.end(), [this](const MicroOp& u) {
          return has_breakpoint(u.va) ||
                 (u.kind == UOp::kFused && has_breakpoint(u.jcc_va));
        });
  }
  return tr.bp_inside;
}

void Vcpu::take_sample(GVirt pc, u8 tier) {
  // Weight = whole periods crossed since the boundary: one retired
  // instruction can jump simulated time by many periods (HLT idle advance,
  // KSVC charges), and attribution must stay proportional to cycles. The
  // sink only observes — it must not touch vCPU state — so the guest's
  // execution, cycle count and lockstep parity are unaffected.
  const u64 periods = (cycles_ - sample_at_) / sample_period_ + 1;
  sample_at_ += periods * sample_period_;
  sampler_->on_sample(cycles_, pc, tier, periods);
}

void Vcpu::end_block(GVirt end) {
  if (in_block_ && trace_ != nullptr && end > block_start_) {
    trace_->on_block(block_start_, end);
  }
  in_block_ = false;
}

bool Vcpu::deliver_interrupt(u8 vector, bool hardware) {
  mem::Mmu& mmu = machine_->mmu();
  GVirt handler = mmu.read32(idt_base_ + vector * 4u);
  if (handler == 0) {
    // An unpopulated vector: hardware lines are wired at boot, so this can
    // only be a stray software INT — the caller turns it into a guest
    // fault.
    FC_CHECK(!hardware, << "no IDT handler for hardware vector "
                        << static_cast<int>(vector));
    return false;
  }
  end_block(regs_.pc);
  if (trace_ != nullptr) trace_->on_interrupt(vector, hardware);
  FC_TRACE_EVENT(kInterrupt, hardware ? 1 : 0, 0, vector, regs_.pc, 0, 0);

  u32 flags = FlagsWord::pack(regs_.mode, regs_.zf, regs_.interrupts_enabled);
  u32 old_sp = regs_[Reg::SP];
  u32 frame_sp = old_sp;
  if (regs_.mode == Mode::kUser) {
    FC_CHECK(kstack_ptr_addr_ != 0, << "kstack pointer not configured");
    frame_sp = mmu.read32(kstack_ptr_addr_);
  }
  // Push flags, old sp, old pc (so [sp] = old pc at handler entry).
  frame_sp -= 4;
  mmu.write32(frame_sp, flags);
  frame_sp -= 4;
  mmu.write32(frame_sp, old_sp);
  frame_sp -= 4;
  mmu.write32(frame_sp, regs_.pc);
  regs_[Reg::SP] = frame_sp;
  regs_.mode = Mode::kKernel;
  regs_.interrupts_enabled = false;
  regs_.pc = handler;
  cycles_ += perf_.cost_int;
  return true;
}

Vcpu::CachedFetch Vcpu::cached_fetch() {
  mem::Mmu& mmu = machine_->mmu();
  const GVirt pc = regs_.pc;
  auto frame = mmu.translate_page(page_base(pc));
  if (!frame) return {nullptr, true};
  // TLB parity with the slow path: Mmu::fetch(pc, ..., 7) also probes the
  // following page whenever fewer than 7 bytes remain in this one, and that
  // probe's TLB misses are charged cycles. Simulated time feeds back into
  // guest state (rdtsc, interrupt release times), so the cached path must
  // issue the exact same translation sequence.
  if (kPageSize - page_offset(pc) < isa::kMaxInstructionLength)
    (void)mmu.translate_page(page_base(pc) + kPageSize);
  BlockCache::Fetched fetched =
      block_cache_.fetch(machine_->host(), *frame, page_offset(pc), pc);
  if (fetched.insns_decoded != 0)
    cycles_ += static_cast<Cycles>(fetched.insns_decoded) * perf_.cost_decode;
  // Snapshot the translation state the fetch ran under; while it is
  // unchanged, run_cached_tail may serve straight-line instructions from
  // this page without re-translating (the lookup would provably hit).
  fetch_tlb_version_ = mmu.fill_version();
  fetch_ept_gen_ = mmu.ept().generation();
  return {fetched.insn, false};
}

Exit Vcpu::step(u64 misses_before) {
  mem::Mmu& mmu = machine_->mmu();

  // Re-detect deferred ("missed") interrupt edges once their release time
  // passes.
  if (deferred_irqs_ != 0 && cycles_ >= irq_release_at_) {
    pending_irqs_ |= deferred_irqs_;
    deferred_irqs_ = 0;
  }
  // Deliver one pending IRQ if the guest will take it.
  if (pending_irqs_ != 0 && regs_.interrupts_enabled) {
    u8 line = 0;
    while (!(pending_irqs_ & (1u << line))) ++line;
    pending_irqs_ &= ~(1u << line);
    deliver_interrupt(static_cast<u8>(32 + line), /*hardware=*/true);
    return {ExitReason::kNone, regs_.pc};
  }

  // Execution breakpoints (FACE-CHANGE's context-switch / resume traps).
  if (regs_.pc == suppress_bp_at_) {
    suppress_bp_at_ = 0xFFFFFFFFu;
  } else if (!breakpoints_.empty() && has_breakpoint(regs_.pc)) {
    end_block(regs_.pc);
    return {ExitReason::kBreakpoint, regs_.pc};
  }

  // Fast path: serve the pre-decoded instruction at pc from the block
  // cache; fall back to fetch+decode when nothing cacheable is there.
  isa::DecodeResult dec;
  const isa::Instruction* fetched = nullptr;
  if (block_cache_enabled_) {
    CachedFetch cached = cached_fetch();
    if (cached.fetch_fault) {
      end_block(regs_.pc);
      return {ExitReason::kFetchFault, regs_.pc};
    }
    fetched = cached.insn;
  }
  if (fetched == nullptr) {
    u8 window[isa::kMaxInstructionLength];
    u32 got = mmu.fetch(regs_.pc, window, isa::kMaxInstructionLength);
    if (got == 0) {
      end_block(regs_.pc);
      return {ExitReason::kFetchFault, regs_.pc};
    }
    dec = isa::decode({window, got});
    if (!dec.ok()) {
      // Both genuinely-invalid bytes and UD2 arrive here (UD2 decodes but is
      // the architectural invalid-opcode instruction).
      end_block(regs_.pc);
      return {ExitReason::kInvalidOpcode, regs_.pc};
    }
    cycles_ += perf_.cost_decode;
    fetched = &dec.insn;
    exec_tier_ = kTierInterp;
  } else {
    exec_tier_ = kTierBlock;
  }
  return exec_insn(*fetched, misses_before);
}

Exit Vcpu::exec_insn(const isa::Instruction& insn, u64 misses_before) {
  mem::Mmu& mmu = machine_->mmu();
  if (insn.op == Op::kUd2) {
    end_block(regs_.pc);
    return {ExitReason::kInvalidOpcode, regs_.pc};
  }
  // Privilege checks for simulator instructions.
  if (insn.op == Op::kKsvc && regs_.mode != Mode::kKernel) {
    end_block(regs_.pc);
    return {ExitReason::kInvalidOpcode, regs_.pc};
  }
  if (insn.op == Op::kAppStep && regs_.mode != Mode::kUser) {
    end_block(regs_.pc);
    return {ExitReason::kInvalidOpcode, regs_.pc};
  }
  if ((insn.op == Op::kCli || insn.op == Op::kSti) &&
      regs_.mode != Mode::kKernel) {
    end_block(regs_.pc);
    return {ExitReason::kInvalidOpcode, regs_.pc};
  }

  if (!in_block_) {
    in_block_ = true;
    block_start_ = regs_.pc;
  }

  const GVirt pc = regs_.pc;
  const GVirt next = pc + insn.length;
  u32 cost = perf_.cost_default;
  Exit pending_exit{ExitReason::kNone, 0};

  // Guest-controlled addresses: a miss is a guest fault (the instruction is
  // abandoned with the partial effects exec_mem documents), never a
  // simulator abort.
  auto data_fault = [&] {
    end_block(pc);
    regs_.pc = pc;
    return Exit{ExitReason::kFetchFault, pc};
  };

  if (const UOp simple = simple_uop(insn); simple != UOp::kSlow) {
    exec_simple(simple, static_cast<u8>(insn.r1), static_cast<u8>(insn.r2),
                insn.imm, regs_);
    regs_.pc = next;
  } else if (const UOp memop = mem_uop(insn); memop != UOp::kSlow) {
    if (memop == UOp::kRet) end_block(next);
    if (!exec_mem(memop, static_cast<u8>(insn.r1), static_cast<u8>(insn.r2),
                  mem_imm(insn, next), regs_, mmu))
      return data_fault();
    if (memop == UOp::kCall) {
      end_block(next);
      regs_.pc = insn.rel_target(pc);
      cost = perf_.cost_call;
    } else if (memop == UOp::kRet) {
      cost = perf_.cost_ret;  // exec_mem popped the return address into pc
    } else {
      regs_.pc = next;
    }
  } else switch (insn.op) {
    case Op::kOr: {
      // Memory form (the register form is simple): the misinterpreted 0B 0F
      // pair lands here. Read through the MMU if mapped, else "read"
      // garbage — either way the guest keeps running wrongly instead of
      // trapping, which is the exact hazard instant recovery exists to
      // prevent.
      u32 addr = regs_[insn.r2];
      auto frame = mmu.translate_page(page_base(addr));
      u32 value = frame.has_value() && page_offset(addr) + 4 <= kPageSize
                      ? machine_->host().read32(*frame, page_offset(addr))
                      : 0xFFFFFFFFu;
      regs_.zf = (regs_[insn.r1] |= value) == 0;
      regs_.pc = next;
      break;
    }
    case Op::kCallTab: {
      const std::optional<u32> target =
          mmu.try_read32(insn.imm + regs_[Reg::A] * 4);
      if (!target || !push32(regs_, mmu, next)) return data_fault();
      end_block(next);
      regs_.pc = *target;
      cost = perf_.cost_call;
      break;
    }
    case Op::kJmp:
    case Op::kJmpShort:
      end_block(next);
      regs_.pc = insn.rel_target(pc);
      break;
    case Op::kJz:
    case Op::kJzNear:
      end_block(next);
      regs_.pc = regs_.zf ? insn.rel_target(pc) : next;
      break;
    case Op::kJnz:
    case Op::kJnzNear:
      end_block(next);
      regs_.pc = !regs_.zf ? insn.rel_target(pc) : next;
      break;
    case Op::kInt:
      regs_.pc = next;  // return address is the next instruction
      if (!deliver_interrupt(static_cast<u8>(insn.imm), /*hardware=*/false)) {
        // No handler: fault the guest at the INT itself.
        regs_.pc = pc;
        end_block(pc);
        pending_exit = {ExitReason::kInvalidOpcode, pc};
      }
      cost = 0;  // deliver_interrupt charged cost_int
      break;
    case Op::kIret: {
      end_block(next);
      u32 ret_pc = 0;
      u32 saved_sp = 0;
      u32 flags = 0;
      if (!pop32(regs_, mmu, ret_pc) || !pop32(regs_, mmu, saved_sp) ||
          !pop32(regs_, mmu, flags))
        return data_fault();
      regs_.pc = ret_pc;
      regs_[Reg::SP] = saved_sp;
      regs_.zf = FlagsWord::zf(flags);
      regs_.interrupts_enabled = FlagsWord::interrupts(flags);
      regs_.mode = FlagsWord::mode(flags);
      cost = perf_.cost_iret;
      break;
    }
    case Op::kPusha: {
      // x86 order: eax, ecx, edx, ebx, original esp, ebp, esi, edi.
      u32 original_sp = regs_[Reg::SP];
      for (int r = 0; r < isa::kNumRegs; ++r) {
        const u32 value = (r == 4) ? original_sp : regs_.gpr[r];
        if (!push32(regs_, mmu, value)) return data_fault();
      }
      regs_.pc = next;
      break;
    }
    case Op::kPopa: {
      for (int r = isa::kNumRegs - 1; r >= 0; --r) {
        u32 value = 0;
        if (!pop32(regs_, mmu, value)) return data_fault();
        if (r != 4) regs_.gpr[r] = value;  // saved ESP is discarded
      }
      regs_.pc = next;
      break;
    }
    case Op::kCli:
      regs_.interrupts_enabled = false;
      regs_.pc = next;
      break;
    case Op::kSti:
      regs_.interrupts_enabled = true;
      regs_.pc = next;
      break;
    case Op::kHlt: {
      end_block(next);
      regs_.pc = next;
      cost = perf_.cost_hlt;
      bool progressed = (env_ != nullptr) && env_->on_idle(*this);
      if (!progressed) pending_exit = {ExitReason::kHalt, next};
      break;
    }
    case Op::kKsvc:
      regs_.pc = next;
      cost = perf_.cost_ksvc;
      FC_CHECK(env_ != nullptr, << "KSVC with no environment");
      env_->on_ksvc(static_cast<u16>(insn.imm), *this);
      break;
    case Op::kAppStep:
      regs_.pc = next;
      FC_CHECK(env_ != nullptr, << "APPSTEP with no environment");
      env_->on_app_step(*this);
      break;
    case Op::kRdtsc:
      regs_[Reg::A] = static_cast<u32>(cycles_);
      regs_[Reg::D] = static_cast<u32>(cycles_ >> 32);
      regs_.pc = next;
      break;
    default:
      FC_UNREACHABLE(<< "UD2, the simple and the memory ops are handled above");
  }

  ++instructions_;
  cycles_ += cost;
  cycles_ +=
      (mmu.stats().tlb_misses - misses_before) * perf_.cost_tlb_walk;
  // Follow straight-line execution within the cached block (no-op when the
  // instruction came from the slow path). Early-exit returns above leave the
  // cursor parked on the un-retired instruction, which is exactly right: a
  // resume re-serves it.
  block_cache_.advance(regs_.pc);
  // Sampling profiler boundary: one always-false compare when detached
  // (sample_at_ parks at ~0), attributed to the retired instruction and the
  // tier that fetched it.
  if (cycles_ >= sample_at_) take_sample(pc, exec_tier_);
  return pending_exit;
}

Exit Vcpu::run_cached_tail(u64 budget_end) {
  mem::Mmu& mmu = machine_->mmu();
  exec_tier_ = kTierBlock;  // every instruction here comes from the cursor
  while (instructions_ < budget_end) {
    const GVirt pc = regs_.pc;
    // Anything that could alter behaviour sends us back to step(), which
    // handles it exactly as the uncached interpreter would: IRQ release /
    // delivery, breakpoints, a changed TLB or EPT (the code-page
    // translation may now miss and must be re-run and charged), and the
    // page-tail region where the slow path would probe the next page.
    if (deferred_irqs_ != 0 && cycles_ >= irq_release_at_) break;
    if (pending_irqs_ != 0 && regs_.interrupts_enabled) break;
    if (pc == suppress_bp_at_) break;
    if (!breakpoints_.empty() && has_breakpoint(pc)) break;
    if (mmu.fill_version() != fetch_tlb_version_ ||
        mmu.ept().generation() != fetch_ept_gen_)
      break;
    if (kPageSize - page_offset(pc) < isa::kMaxInstructionLength) break;
    const isa::Instruction* insn = block_cache_.cursor_insn(pc);
    if (insn == nullptr) break;
    if (simple_uop(*insn) != UOp::kSlow) {
      run_simple_batch(budget_end);
      continue;
    }
    Exit exit = exec_insn(*insn, mmu.stats().tlb_misses);
    if (exit.reason != ExitReason::kNone) return exit;
  }
  return {ExitReason::kNone, regs_.pc};
}

void Vcpu::run_simple_batch(u64 budget_end) {
  // Count clamps. Simple ops retire one instruction for cost_default each
  // and touch nothing but registers and ZF, so of the loop-top checks only
  // the budget and the deferred-IRQ release can change across the run, and
  // both are known in advance — as is the op after which exec_insn would
  // sample. Each clamp is the op count at which per-op execution stops
  // (the loop top already held for the first op, so each is >= 1); a zero
  // cost_default is clamped as if it were 1, which only stops earlier.
  const Cycles cd = perf_.cost_default != 0 ? perf_.cost_default : 1;
  u64 limit = budget_end - instructions_;
  if (deferred_irqs_ != 0)
    limit = std::min(limit, (irq_release_at_ - cycles_ - 1) / cd + 1);
  limit = std::min(limit, sample_at_ > cycles_
                              ? (sample_at_ - cycles_ - 1) / cd + 1
                              : u64{1});
  // Address clamp: the first op at or past `stop_va` stays for the next
  // loop pass — the page-tail region (where the slow path probes the next
  // page) and any breakpoint or armed suppress-once later in the page. The
  // loop top already cleared all three for the first op, so start lies
  // below stop_va.
  const GVirt start = regs_.pc;
  GVirt stop_va =
      page_base(start) + kPageSize - (isa::kMaxInstructionLength - 1);
  for (GVirt bp : breakpoints_)
    if (bp > start && bp < stop_va) stop_va = bp;
  if (suppress_bp_at_ > start && suppress_bp_at_ < stop_va)
    stop_va = suppress_bp_at_;

  GVirt va = start;
  GVirt last = start;
  u64 n = 0;
  for (const isa::Instruction& insn : block_cache_.cursor_rest()) {
    const UOp kind = simple_uop(insn);
    if (kind == UOp::kSlow || n == limit || va >= stop_va) break;
    exec_simple(kind, static_cast<u8>(insn.r1), static_cast<u8>(insn.r2),
                insn.imm, regs_);
    last = va;
    va += insn.length;
    ++n;
  }
  if (!in_block_) {
    in_block_ = true;
    block_start_ = start;
  }
  instructions_ += n;
  cycles_ += n * perf_.cost_default;
  regs_.pc = va;
  block_cache_.advance_run(static_cast<u32>(n), va);
  if (cycles_ >= sample_at_) take_sample(last, kTierBlock);
}

Exit Vcpu::run_traced(u64 budget_end, u64* misses_io, bool* dispatched) {
  *dispatched = false;
  mem::Mmu& mmu = machine_->mmu();
  // The op the trace tier retired last, carried across chained dispatches
  // and between the halves of a fused pair: a sample due at an op boundary
  // names it, as exec_insn and the block batch name the op they just
  // retired.
  GVirt last_va = 0;
  // Outer loop: a completed (or prediction-exited) dispatch lands on a pc
  // that very often heads another trace — a call-heavy loop alternates
  // between a body trace ending in RET and the continuation trace after the
  // call site. Chaining here skips the return to run() and its preamble;
  // every decline below still hands control back so step() handles the
  // condition exactly as if this tier did not exist.
  for (;;) {
    const GVirt pc = regs_.pc;
    // Once a chained dispatch has retired instructions, declines must report
    // kNone at the current pc (run() resumes with step); before any dispatch
    // the caller ignores the value.
    if (instructions_ >= budget_end) return {ExitReason::kNone, pc};
    // Anything the step() preamble would handle first declines the dispatch:
    // step() re-evaluates the identical conditions on identical state.
    // Likewise the page-tail fetch region, where the slow path probes the
    // next page.
    if (deferred_irqs_ != 0 && cycles_ >= irq_release_at_)
      return {ExitReason::kNone, pc};
    if (pending_irqs_ != 0 && regs_.interrupts_enabled)
      return {ExitReason::kNone, pc};
    if (pc == suppress_bp_at_) return {ExitReason::kNone, pc};
    if (!breakpoints_.empty() && has_breakpoint(pc))
      return {ExitReason::kNone, pc};
    if (kPageSize - page_offset(pc) < isa::kMaxInstructionLength)
      return {ExitReason::kNone, pc};

    auto frame = mmu.translate_page(page_base(pc));
    if (!frame) {
      // Returning the definitive exit here (instead of declining) keeps the
      // failed translation's miss count at exactly one — step() would
      // translate, and count, again.
      *dispatched = true;
      end_block(pc);
      return {ExitReason::kFetchFault, pc};
    }
    const u32 offset = page_offset(pc);
    Trace* tr = trace_cache_.find(*frame, offset);
    if (tr == nullptr) {
      // Promote on the spot if the block here has gone hot; dispatch on the
      // next visit (the entry-translate miss, if any, is charged by the
      // block tier through the shared misses_io baseline either way).
      const DecodedBlock* block = block_cache_.peek(*frame, offset);
      if (block != nullptr && block->heat >= trace_hot_threshold_)
        trace_cache_.build(machine_->host(), mmu, block_cache_, *frame,
                           offset, pc);
      return {ExitReason::kNone, pc};
    }
    if (!trace_cache_.validate_translations(*tr, mmu))
      return {ExitReason::kNone, pc};

    *dispatched = true;
    trace_cache_.note_dispatch(*tr);
    block_cache_.drop_cursor();
    exec_tier_ = kTierTrace;  // kSlow ops run through exec_insn
    // Snapshots the per-op guards revalidate: while none of these move, every
    // translation the trace skips (block boundaries, the self-loop re-entry)
    // would provably hit, and no code byte under the trace has changed.
    const u64 entry_fill = mmu.fill_version();
    const u64 entry_ept = mmu.ept().generation();
    const u64 entry_epoch = trace_cache_.write_epoch();
    const MicroOp* uops = tr->uops.data();
    const std::size_t n = tr->uops.size();
    const GVirt entry_va = tr->entry_va;
    u32 executed = 0;
    std::size_t i = 0;
    // The TLB-miss count the next retire charges walks against: on entry
    // the caller's baseline, which predates this iteration's entry
    // translate, so the first op carries that miss (or, if nothing retires,
    // the baseline reaches step() via *misses_io and the miss is charged
    // there exactly once); after each retire, the count at that retire.
    u64 walk_base = *misses_io;
    // While `fast` holds and cycles_ stays below `fast_until`, every guard
    // except the budget compare is provably quiescent: the last full pass saw
    // no deliverable IRQ, no breakpoint on any op of this trace (at the
    // current breakpoint epoch) and no armed suppress-once, and no op
    // executed since could disturb them — register-only and branch ops
    // cannot fill the TLB, write code bytes, call the environment, or
    // raise/unmask an IRQ; memory ops re-check the versions they can move,
    // and kSlow ops clear the flag. The only guard input the pure ops do
    // advance is cycles_, which matters exactly when a deferred IRQ's
    // release time (or a sample boundary) is crossed — hence the cycle
    // bound instead of a per-op re-test.
    bool fast = false;
    u64 fast_until = 0;

    // What moved under the hoisted checks since entry: the translation
    // state, or a code byte. Either is a side exit at the next guard.
    auto moved = [&]() -> u8 {
      if (mmu.fill_version() != entry_fill ||
          mmu.ept().generation() != entry_ept)
        return TraceCache::kExitTranslation;
      if (trace_cache_.write_epoch() != entry_epoch)
        return TraceCache::kExitCodeWrite;
      return 0;
    };
    // The boundary before the op at `va` (or before a fused pair's branch
    // half): a sample due since the last retire fires first, naming that
    // op; then the budget; then, outside fast mode, the same bail set as
    // run_cached_tail, so side exits hand the architectural state to the
    // block tier exactly as uncached execution would see it. A sample due
    // before the first retire (time charged before the dispatch) waits for
    // that retire, as it would in exec_insn. Returns the side-exit reason,
    // or 0 to run the op.
    auto boundary = [&](GVirt va) -> u8 {
      if (fast && cycles_ >= fast_until) fast = false;
      if (!fast && cycles_ >= sample_at_ && executed != 0)
        take_sample(last_va, kTierTrace);
      if (instructions_ >= budget_end) return TraceCache::kExitBudget;
      if (fast) return 0;
      if ((deferred_irqs_ != 0 && cycles_ >= irq_release_at_) ||
          (pending_irqs_ != 0 && regs_.interrupts_enabled))
        return TraceCache::kExitIrq;
      if (va == suppress_bp_at_ ||
          (!breakpoints_.empty() && has_breakpoint(va)))
        return TraceCache::kExitBreakpoint;
      if (const u8 why = moved()) return why;
      // Pending-but-masked IRQs stay undeliverable across pure ops; a
      // deferred IRQ is handled by the cycle bound. Armed breakpoints only
      // matter if one sits on an op of this trace: nothing that runs in
      // fast mode can arm one.
      fast = (breakpoints_.empty() || !breakpoint_in(*tr)) &&
             suppress_bp_at_ == 0xFFFFFFFFu &&
             !(pending_irqs_ != 0 && regs_.interrupts_enabled);
      fast_until =
          deferred_irqs_ != 0 ? irq_release_at_ : ~static_cast<u64>(0);
      // Sampling bound: fast mode must stop at the next sample boundary so
      // the profiler fires there (sample_at_ is ~0 when detached, making
      // this a no-op). A sample still due here, from time charged before
      // the dispatch, keeps fast mode off until the first retire fires it.
      if (sample_at_ < fast_until) fast_until = sample_at_;
      if (cycles_ >= fast_until) fast = false;
      return 0;
    };
    auto side_exit = [&](u8 why, GVirt va) {
      regs_.pc = va;
      trace_cache_.note_side_exit(why, va, executed);
      *misses_io = walk_base;
      return Exit{ExitReason::kNone, va};
    };
    // Retire `count` instructions ending with the op at `va` for `cost`
    // cycles, plus the TLB walks missed since the last retire.
    auto retire = [&](u64 count, Cycles cost, GVirt va) {
      const u64 misses = mmu.stats().tlb_misses;
      instructions_ += count;
      cycles_ += cost + (misses - walk_base) * perf_.cost_tlb_walk;
      walk_base = misses;
      executed += static_cast<u32>(count);
      last_va = va;
    };

    // regs_.pc stays lazy inside the dispatch: straight-line micro-ops and
    // in-trace branches never store it (the micro-op index tracks it), and
    // every exit path materialises the architectural pc from the micro-op
    // record before anything can observe it.
    while (true) {
      const MicroOp& u = uops[i];
      if (const u8 why = boundary(u.va)) return side_exit(why, u.va);
      if (fast && u.seg > 1) {
        // Straight-line simple run: every op in it retires one instruction
        // for cost_default, cannot fault, never reads cycles_, and cannot
        // disturb any guard input — so the per-op budget/guard checks and
        // the retirement accounting hoist out of the loop entirely. The
        // batch is clamped so it stops at exactly the op boundary where
        // per-op execution would have re-checked the budget or crossed the
        // deferred-IRQ release cycle (fast implies cycles_ < fast_until and
        // the boundary check implies at least one instruction of budget, so
        // len >= 1 and at least one op retires).
        const u32 cd = perf_.cost_default != 0 ? perf_.cost_default : 1;
        u64 len = u.seg;
        if (budget_end - instructions_ < len) len = budget_end - instructions_;
        const u64 by_cycles = (fast_until - cycles_ - 1) / cd + 1;
        if (by_cycles < len) len = by_cycles;
        const std::size_t stop = i + static_cast<std::size_t>(len);
        for (std::size_t e = i; e < stop; ++e) {
          const MicroOp& v = uops[e];
          exec_simple(v.kind, v.r1, v.r2, v.imm, regs_);
        }
        retire(len, len * perf_.cost_default, uops[stop - 1].va);
        i = stop;
        if (i == n) {
          // The segment reached the end of the trace (a trace only ends on a
          // simple op when the op or block cap cut it mid-block).
          regs_.pc = uops[n - 1].fall_va;
          trace_cache_.note_completion(executed);
          break;  // chain: try to dispatch at the landing pc
        }
        continue;
      }
      // Micro-op execution through the shared definitions (exec_simple,
      // exec_mem, exec_insn) with exec_insn's cycle effects: rdtsc reads
      // cycles_ before its own charge, cost_default per retired instruction
      // unless the op has its own. Branch targets were resolved to micro-op
      // indices at build, so staying on the predicted chain is an index
      // assignment, not a pc compare.
      switch (u.kind) {
        case UOp::kRdtsc:
          regs_[Reg::A] = static_cast<u32>(cycles_);
          regs_[Reg::D] = static_cast<u32>(cycles_ >> 32);
          retire(1, perf_.cost_default, u.va);
          break;
        case UOp::kJmp:
          retire(1, perf_.cost_default, u.va);
          if (u.taken_idx != kNoTarget) {
            i = u.taken_idx;
            continue;
          }
          regs_.pc = u.taken_va;
          goto leave_trace;
        case UOp::kJcc:
        case UOp::kFused: {
          if (u.kind == UOp::kFused) {
            // ALU half: register-only, cannot fault, sets the ZF the branch
            // consumes. Past it, if anything fires at the inter-pair
            // boundary the ALU half is retired and pc sits on the branch —
            // byte-identical to uncached stepping.
            exec_simple(static_cast<UOp>(u.aux & 0x7F), u.r1, u.r2, u.imm,
                        regs_);
            retire(1, perf_.cost_default, u.va);
            if (const u8 why = boundary(u.jcc_va))
              return side_exit(why, u.jcc_va);
            trace_cache_.note_fused_exec();
          }
          const bool taken = regs_.zf == ((u.aux & 0x80) != 0);
          retire(1, perf_.cost_default,
                 u.kind == UOp::kFused ? u.jcc_va : u.va);
          const u16 idx = taken ? u.taken_idx : u.fall_idx;
          if (idx != kNoTarget) {
            i = idx;
            continue;
          }
          regs_.pc = taken ? u.taken_va : u.fall_va;
          goto leave_trace;
        }
        case UOp::kPush:
        case UOp::kPop:
        case UOp::kLoad:
        case UOp::kStore:
        case UOp::kLoadAbs:
        case UOp::kStoreAbs:
        case UOp::kCall:
        case UOp::kRet:
        case UOp::kLeave:
          // Materialise the pc first: data-frame write sinks attribute a
          // store to the executing instruction, and a fault leaves it here.
          regs_.pc = u.va;
          if (!exec_mem(u.kind, u.r1, u.r2, u.imm, regs_, mmu)) {
            // exec_insn's fault path: no instruction or cycle charge, pc on
            // the faulting op, partial effects (a push's moved SP) kept.
            end_block(u.va);
            trace_cache_.note_side_exit(TraceCache::kExitTrap, u.va,
                                        executed);
            return {ExitReason::kFetchFault, u.va};
          }
          retire(1,
                 u.kind == UOp::kCall  ? perf_.cost_call
                 : u.kind == UOp::kRet ? perf_.cost_ret
                                       : perf_.cost_default,
                 u.va);
          // A data access can fill the TLB — evicting a boundary the
          // hoisted translation check relies on — and a store can hit a
          // watched code frame; dropping `fast` lets the next op's full
          // guard attribute the exit.
          if (fast && moved() != 0) fast = false;
          if (u.kind == UOp::kCall) {
            if (u.taken_idx != kNoTarget) {
              i = u.taken_idx;
              continue;
            }
            regs_.pc = u.taken_va;
            goto leave_trace;
          }
          // RET popped a dynamic landing into pc, resolved like kSlow:
          // builds stop the chain at RET, so this is normally the last
          // micro-op, but a recursive loop can return straight onto the
          // trace entry.
          if (u.kind == UOp::kRet) goto land;
          break;
        case UOp::kSlow: {
          regs_.pc = u.va;  // materialise: exec_insn is pc-relative
          Exit exit = exec_insn(tr->slow[u.slow_index], walk_base);
          if (exit.reason != ExitReason::kNone) {
            trace_cache_.note_side_exit(TraceCache::kExitTrap, regs_.pc,
                                        executed);
            return exit;
          }
          walk_base = mmu.stats().tlb_misses;  // exec_insn retired and charged
          ++executed;
          last_va = u.va;
          fast = false;  // may have filled the TLB, run the env, raised IRQs
          goto land;
        }
        default:
          exec_simple(u.kind, u.r1, u.r2, u.imm, regs_);
          retire(1, perf_.cost_default, u.va);
          break;
      }
      // Straight-line successor.
      if (++i == n) {
        regs_.pc = u.fall_va;
        trace_cache_.note_completion(executed);
        break;  // chain: try to dispatch at the landing pc
      }
      continue;
    land:
      // Landing resolution for the ops whose successor is only known at
      // runtime: the predicted chain, the hot-loop back edge, or off the
      // trace.
      if (i + 1 < n && regs_.pc == uops[i + 1].va) {
        ++i;
        continue;
      }
      if (regs_.pc == entry_va) {
        i = 0;
        continue;
      }
    leave_trace:
      // A branch (or slow op) left the micro-op array: running off the last
      // op is a completion, leaving mid-trace is a prediction side exit.
      // Either way regs_.pc is materialised and the outer loop tries to
      // chain into a trace at the landing pc.
      if (i + 1 == n)
        trace_cache_.note_completion(executed);
      else
        trace_cache_.note_side_exit(TraceCache::kExitPrediction, regs_.pc,
                                    executed);
      break;
    }
    // Chain point: the last retire's sample fires here, before anything can
    // run in another tier, and its miss count is the next dispatch's
    // first-op baseline — crucially taken *before* the next iteration's
    // entry translate, whose miss must survive a decline and reach step()
    // uncharged.
    if (cycles_ >= sample_at_) take_sample(last_va, kTierTrace);
    *misses_io = walk_base;
  }
}

Exit Vcpu::run(u64 max_instructions) {
  const u64 budget_end = instructions_ + max_instructions;
  while (true) {
    if (instructions_ >= budget_end) {
      end_block(regs_.pc);
      return {ExitReason::kInstructionLimit, regs_.pc};
    }
    // The snapshot all three tiers charge TLB walks against; taken before
    // run_traced so a declined dispatch's entry translation is charged once,
    // by whichever tier executes the instruction. run_traced maintains it
    // across chained dispatches, and the kNone fall-through below hands the
    // maintained value straight to step() — re-snapshotting here would hide
    // a chained dispatch's uncharged entry-probe miss.
    u64 misses_before = machine_->mmu().stats().tlb_misses;
    // Trace dispatch is gated off under a TraceSink: the profiler needs the
    // per-block on_block callbacks that only the step path produces.
    if (block_cache_enabled_ && trace_cache_enabled_ && trace_ == nullptr) {
      bool dispatched = false;
      Exit exit = run_traced(budget_end, &misses_before, &dispatched);
      if (dispatched) {
        if (exit.reason != ExitReason::kNone) return exit;
        if (instructions_ >= budget_end) {
          end_block(regs_.pc);
          return {ExitReason::kInstructionLimit, regs_.pc};
        }
      }
    }
    Exit exit = step(misses_before);
    if (exit.reason != ExitReason::kNone) return exit;
    if (block_cache_enabled_ && instructions_ < budget_end) {
      exit = run_cached_tail(budget_end);
      if (exit.reason != ExitReason::kNone) return exit;
    }
  }
}

}  // namespace fc::cpu
