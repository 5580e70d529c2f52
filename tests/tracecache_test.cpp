// Trace-tier tests: promotion and dispatch of hot loops, fused-pair parity
// against the uncached interpreter, lazy retirement through the write
// barrier (a guest store over the *middle* constituent frame of a
// multi-page trace must retire exactly that trace), code-load rewrites
// (the recovery path), and EPT view repoints mid-run — which must swing
// execution to the other view's traces without flushing anything, and
// revive the originals on switch-back. The batch-boundary cases at the end
// put each clamp of the block tier's straight-line batch (and of the trace
// tier's fast mode) inside a run of simple ops and check both tiers against
// the uncached interpreter after every run() call.
#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "isa/assembler.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::cpu {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr GVirt kCodeVa = kKernelBase + 0x10000;
constexpr GVirt kStackTop = kKernelBase + 0x20000;
constexpr GVirt kIdt = kKernelBase + 0x30000;
constexpr GVirt kEsp0 = kKernelBase + 0x30400;

/// Bare machine + vCPU, kernel half direct-mapped (the blockcache_test
/// setup). Trace promotion is left at the default threshold unless a test
/// lowers it.
struct MiniGuest {
  MiniGuest() : machine(8), vcpu(machine) {
    mem::GuestPageTableBuilder builder(machine, 0x1000, 0x100000);
    dir = builder.create_directory();
    builder.map(dir, kKernelBase, 0, machine.guest_phys_pages());
    vcpu.set_cr3(dir);
    vcpu.set_idt_base(kIdt);
    vcpu.set_kstack_ptr_addr(kEsp0);
    vcpu.regs().mode = Mode::kKernel;
    vcpu.regs()[Reg::SP] = kStackTop;
  }

  void load(Assembler& a) {
    std::vector<u8> bytes = a.finish(kCodeVa);
    machine.pwrite_bytes(mem::GuestLayout::kernel_pa(kCodeVa), bytes);
    vcpu.regs().pc = kCodeVa;
  }

  Exit run(u64 budget = 100'000) { return vcpu.run(budget); }

  mem::Machine machine;
  Vcpu vcpu;
  GPhys dir = 0;
};

class TraceCacheFixture : public ::testing::Test {
 protected:
  MiniGuest g_;
};

/// The canonical countdown loop: A starts at `iters`, the body adds `step`
/// to D each pass. Identical layout for any `step`, so a rewritten page can
/// swap semantics without moving a single branch target.
Assembler countdown_loop(u32 iters, u32 step) {
  Assembler a;
  a.mov_imm(Reg::A, iters);
  a.mov_imm(Reg::B, 1);
  a.mov_imm(Reg::D, 0);
  auto head = a.make_label();
  a.bind(head);
  for (u32 i = 0; i < step; ++i) a.add(Reg::D, Reg::B);
  a.sub(Reg::A, Reg::B);
  a.jnz(head);
  a.hlt();
  return a;
}

TEST_F(TraceCacheFixture, ColdCodeIsNeverPromotedAtTheDefaultThreshold) {
  // 5 loop entries < kDefaultHotThreshold (16): the loop stays at the block
  // tier and the trace arena stays empty.
  Assembler a = countdown_loop(5, 1);
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.trace_cache().stats().built, 0u);
  EXPECT_EQ(g_.vcpu.trace_cache().stats().dispatched, 0u);
}

TEST_F(TraceCacheFixture, HotLoopIsPromotedAndDispatched) {
  Assembler a = countdown_loop(200, 1);
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 200u);
  const TraceCache::Stats& stats = g_.vcpu.trace_cache().stats();
  EXPECT_GT(stats.built, 0u);
  EXPECT_GT(stats.dispatched, 0u);
  // The bulk of the loop retired inside trace dispatches, not block steps.
  EXPECT_GT(stats.trace_insns, 400u);
  EXPECT_GT(g_.vcpu.trace_cache().size(), 0u);
}

TEST_F(TraceCacheFixture, TraceTierMatchesUncachedStateCyclesAndTlbMisses) {
  // sub_imm_a + jnz is the fusable shape (the Jcc consumes exactly the ZF
  // the ALU half just produced); the fused handler must be invisible in
  // registers, cycles and TLB charging.
  auto program = [] {
    Assembler a;
    a.mov_imm(Reg::A, 300);
    a.mov_imm(Reg::C, 0);
    auto head = a.make_label();
    a.bind(head);
    a.add(Reg::C, Reg::A);
    a.sub_imm_a(1);
    a.jnz(head);
    a.hlt();
    return a;
  };
  g_.vcpu.set_trace_hot_threshold(1);
  Assembler traced = program();
  g_.load(traced);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);

  MiniGuest plain;
  plain.vcpu.set_block_cache_enabled(false);
  Assembler uncached = program();
  plain.load(uncached);
  EXPECT_EQ(plain.run().reason, ExitReason::kHalt);

  EXPECT_EQ(plain.vcpu.regs().gpr, g_.vcpu.regs().gpr);
  EXPECT_EQ(plain.vcpu.regs().pc, g_.vcpu.regs().pc);
  EXPECT_EQ(plain.vcpu.cycles(), g_.vcpu.cycles());
  EXPECT_EQ(plain.machine.mmu().stats().tlb_misses,
            g_.machine.mmu().stats().tlb_misses);
  EXPECT_GT(g_.vcpu.trace_cache().stats().fused_built, 0u);
  EXPECT_GT(g_.vcpu.trace_cache().stats().fused_exec, 0u);
}

// A guest store over the middle constituent frame of a three-page trace:
// the next probe of that trace retires it (lazy invalidation), while a
// trace on an unrelated frame stays resident untouched.
TEST_F(TraceCacheFixture, StoreOverMiddleFrameRetiresOnlyThatTrace) {
  g_.vcpu.set_trace_hot_threshold(1);
  Assembler a;
  a.mov_imm(Reg::A, 40);
  a.mov_imm(Reg::B, 1);
  a.mov_imm(Reg::D, 0);
  auto head = a.make_label();
  auto p1 = a.make_label();
  auto p2 = a.make_label();
  const u32 head_off = a.size();
  a.bind(head);                // page 0: loop entry (jnz_near target)
  a.add(Reg::D, Reg::B);
  a.jmp(p1);
  a.align(4096);
  const u32 p1_off = a.size();
  a.bind(p1);                  // page 1: the middle constituent
  a.mov_imm(Reg::C, 0x1111);   // immediate lives at p1 + 1
  a.jmp(p2);
  a.align(4096);
  a.bind(p2);                  // page 2: back edge
  a.sub(Reg::A, Reg::B);
  a.jnz_near(head);
  a.hlt();
  a.align(4096);
  const u32 b_entry_off = a.size();  // page 3: the unrelated loop
  a.mov_imm(Reg::A, 30);
  const u32 b_head_off = a.size();
  auto bhead = a.make_label();
  a.bind(bhead);
  a.add(Reg::D, Reg::B);
  a.sub(Reg::A, Reg::B);
  a.jnz(bhead);
  a.hlt();
  g_.load(a);

  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::C], 0x1111u);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 40u);
  g_.vcpu.regs().pc = kCodeVa + b_entry_off;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);

  mem::Mmu& mmu = g_.machine.mmu();
  TraceCache& tc = g_.vcpu.trace_cache();
  auto frame_a = mmu.translate_page(page_base(kCodeVa + head_off));
  auto frame_b = mmu.translate_page(page_base(kCodeVa + b_head_off));
  ASSERT_TRUE(frame_a.has_value());
  ASSERT_TRUE(frame_b.has_value());
  ASSERT_NE(tc.find(*frame_a, page_offset(kCodeVa + head_off)), nullptr);
  Trace* trace_b = tc.find(*frame_b, page_offset(kCodeVa + b_head_off));
  ASSERT_NE(trace_b, nullptr);
  const u64 retired_before = tc.stats().retired;

  // Patch the page-1 immediate through the guest store path. Only the
  // three-page trace holds that frame.
  mmu.write8(kCodeVa + p1_off + 1, 0x22);
  mmu.write8(kCodeVa + p1_off + 2, 0x22);
  EXPECT_GE(tc.stats().inval_guest_write, 1u);
  EXPECT_EQ(tc.find(*frame_a, page_offset(kCodeVa + head_off)), nullptr);
  EXPECT_EQ(tc.stats().retired, retired_before + 1);
  // The unrelated trace survived, same arena entry, still live.
  EXPECT_EQ(tc.find(*frame_b, page_offset(kCodeVa + b_head_off)), trace_b);

  // Re-running the loop executes (and re-promotes) the patched bytes.
  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::C], 0x2222u);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 40u);
}

// The recovery path: a code-load rewrite (RecoveryEngine copying pristine
// bytes over a function body) must retire the traces built from the old
// bytes; the rerun executes the new semantics at full trace speed.
TEST_F(TraceCacheFixture, CodeLoadRewriteRetiresTracesOverTheFrame) {
  g_.vcpu.set_trace_hot_threshold(1);
  Assembler before = countdown_loop(50, 1);
  g_.load(before);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 50u);
  const TraceCache::Stats& stats = g_.vcpu.trace_cache().stats();
  EXPECT_GT(stats.dispatched, 0u);
  const u64 retired_before = stats.retired;

  {
    mem::HostMemory::WriteCauseScope cause(g_.machine.host(),
                                           mem::FrameWriteCause::kCodeLoad);
    Assembler after = countdown_loop(50, 2);  // same entry, doubled step
    g_.machine.pwrite_bytes(mem::GuestLayout::kernel_pa(kCodeVa),
                            after.finish(kCodeVa));
  }
  EXPECT_GE(stats.inval_code_load, 1u);

  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 100u);  // new bytes, not the stale trace
  EXPECT_GT(stats.retired, retired_before);
}

// FACE-CHANGE's no-flush property at the trace tier: repointing the EPT to
// another view's frame mid-run swings the very next dispatch to that
// frame's traces (post-EPT keying — nothing to retire, nothing to flush),
// and switching back revives the original trace without a rebuild.
TEST_F(TraceCacheFixture, ViewRepointMidRunSwitchesTracesWithoutFlush) {
  g_.vcpu.set_trace_hot_threshold(1);
  // The alternate view's frame: the same loop with a doubled step, and the
  // same prologue so the loop head sits at the same offset. Filled before
  // any repoint, while the EPT still maps it identity.
  constexpr GPhys kAltPa = 0x40000;
  const auto alt_frame = *g_.machine.ept().translate(kAltPa);
  {
    Assembler alt = countdown_loop(60, 2);
    g_.machine.pwrite_bytes(kAltPa, alt.finish(kCodeVa));
  }
  Assembler base = countdown_loop(60, 1);
  g_.load(base);

  // Warm every base-frame block to promotion first (the entry block only
  // becomes hot on its second entry), so the switch-back phase below can
  // assert strictly that reviving the original frame builds nothing new.
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  g_.vcpu.regs().pc = kCodeVa;

  // 3 prologue instructions + 20 iterations x 3 = budget 63 stops exactly
  // at the loop head, mid-trace, with D == 20.
  EXPECT_EQ(g_.run(63).reason, ExitReason::kInstructionLimit);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 20u);
  TraceCache& tc = g_.vcpu.trace_cache();
  EXPECT_GT(tc.stats().built, 0u);
  EXPECT_GT(tc.stats().dispatched, 0u);
  const u64 built_before = tc.stats().built;
  const u64 retired_before = tc.stats().retired;

  // Repoint the code page to the alternate view's frame (what the engine's
  // view switch does) and resume mid-loop.
  g_.machine.ept().map(mem::GuestLayout::kernel_pa(kCodeVa), alt_frame);
  g_.machine.ept().invalidate();
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  // 40 remaining iterations ran the alternate bytes: D = 20 + 40 * 2.
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 100u);
  // A new trace was built for the new frame; the old one was NOT retired —
  // repoints invalidate nothing at this tier.
  EXPECT_GT(tc.stats().built, built_before);
  EXPECT_EQ(tc.stats().retired, retired_before);
  const u64 built_after_switch = tc.stats().built;

  // Switch back: the original trace is revived as-is — no rebuild.
  g_.machine.ept().map(mem::GuestLayout::kernel_pa(kCodeVa),
                       mem::GuestLayout::kernel_pa(kCodeVa) / kPageSize);
  g_.machine.ept().invalidate();
  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 60u);  // original single-step semantics
  EXPECT_EQ(tc.stats().built, built_after_switch);
  EXPECT_EQ(tc.stats().retired, retired_before);
}

TEST_F(TraceCacheFixture, DisablingDropsResidentTraces) {
  g_.vcpu.set_trace_hot_threshold(1);
  Assembler a = countdown_loop(100, 1);
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_GT(g_.vcpu.trace_cache().size(), 0u);
  g_.vcpu.set_trace_cache_enabled(false);
  EXPECT_EQ(g_.vcpu.trace_cache().size(), 0u);
  // Re-enable and re-run: generations survived the clear, so rebuilding
  // against the same frames is safe.
  g_.vcpu.set_trace_cache_enabled(true);
  g_.vcpu.regs().pc = kCodeVa;
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 100u);
  EXPECT_GT(g_.vcpu.trace_cache().size(), 0u);
}

// --- Batch boundaries -----------------------------------------------------
//
// Every program below is a loop whose body is a straight-line run of
// kBodyOps `add A, B` (B = 1, so A counts retired body ops), closed by a
// fused `sub D, B; jnz`. Parameterised on the tier under test: the block tier
// alone (the body retires as one batch after its first op) or the trace tier
// at hot threshold 1 (the body is a trace segment from the second pass on).

constexpr u32 kBodyOps = 48;

/// Records every sample the vCPU fires.
struct SampleLog final : SampleSink {
  struct Sample {
    Cycles now;
    GVirt pc;
    u8 tier;
    u64 periods;
  };
  void on_sample(Cycles now, GVirt pc, u8 tier, u64 periods) override {
    samples.push_back({now, pc, tier, periods});
  }
  std::vector<Sample> samples;
};

/// The uncached interpreter and the tier under test, loaded with the same
/// bytes and run with the same budgets.
class BatchBoundary : public ::testing::TestWithParam<bool> {
 protected:
  BatchBoundary() {
    plain_.vcpu.set_block_cache_enabled(false);
    cached_.vcpu.set_trace_cache_enabled(trace_tier());
    if (trace_tier()) cached_.vcpu.set_trace_hot_threshold(1);
  }

  bool trace_tier() const { return GetParam(); }

  /// Emit the loop: prologue, optional padding so the body starts at code
  /// offset `body_at`, kBodyOps adds, then the back edge and HLT.
  static Assembler body_loop(u32 iters, u32 body_at = 0) {
    Assembler a;
    a.mov_imm(Reg::A, 0);
    a.mov_imm(Reg::B, 1);
    a.mov_imm(Reg::D, iters);
    auto head = a.make_label();
    if (body_at != 0) {
      a.jmp(head);
      while (a.size() < body_at) a.nop();  // never executed
    }
    a.bind(head);
    for (u32 i = 0; i < kBodyOps; ++i) a.add(Reg::A, Reg::B);
    a.sub(Reg::D, Reg::B);
    a.jnz_near(head);
    a.hlt();
    return a;
  }

  void load(const std::vector<u8>& bytes) {
    for (MiniGuest* g : {&cached_, &plain_}) {
      g->machine.pwrite_bytes(mem::GuestLayout::kernel_pa(kCodeVa), bytes);
      g->vcpu.regs().pc = kCodeVa;
    }
  }

  template <class F>
  void both(F f) {
    f(cached_.vcpu);
    f(plain_.vcpu);
  }

  /// One run() of `budget` on both; the exits and every observable must
  /// agree.
  Exit run(u64 budget) {
    const Exit ec = cached_.vcpu.run(budget);
    const Exit ep = plain_.vcpu.run(budget);
    EXPECT_EQ(ec.reason, ep.reason);
    EXPECT_EQ(ec.pc, ep.pc);
    expect_same();
    return ec;
  }

  void expect_same() {
    const Vcpu& c = cached_.vcpu;
    const Vcpu& p = plain_.vcpu;
    EXPECT_EQ(c.regs().gpr, p.regs().gpr);
    EXPECT_EQ(c.regs().pc, p.regs().pc);
    EXPECT_EQ(c.regs().zf, p.regs().zf);
    EXPECT_EQ(c.cycles(), p.cycles());
    EXPECT_EQ(c.instructions_retired(), p.instructions_retired());
    EXPECT_EQ(cached_.machine.mmu().stats().tlb_misses,
              plain_.machine.mmu().stats().tlb_misses);
  }

  /// Same samples in the same order: cycle, weight and pc (every tier
  /// names the op it just retired), and the tier under test took some.
  void expect_same_samples(const SampleLog& cached_log,
                           const SampleLog& plain_log) const {
    ASSERT_EQ(cached_log.samples.size(), plain_log.samples.size());
    u32 traced = 0;
    for (std::size_t i = 0; i < cached_log.samples.size(); ++i) {
      const SampleLog::Sample& c = cached_log.samples[i];
      const SampleLog::Sample& p = plain_log.samples[i];
      EXPECT_EQ(c.now, p.now) << "sample " << i;
      EXPECT_EQ(c.periods, p.periods) << "sample " << i;
      EXPECT_EQ(c.pc, p.pc) << "sample " << i;
      EXPECT_EQ(p.tier, kTierInterp);
      if (c.tier == kTierTrace)
        ++traced;
      else
        EXPECT_EQ(c.tier, kTierBlock) << "sample " << i;
    }
    EXPECT_EQ(traced != 0, trace_tier());
  }

  /// Both tiers actually carried the body: the block tier served it from
  /// the cursor, the trace tier dispatched it.
  void expect_tier_ran() const {
    if (trace_tier())
      EXPECT_GT(cached_.vcpu.trace_cache().stats().trace_insns, kBodyOps);
    else
      EXPECT_GT(cached_.vcpu.block_cache().stats().insn_hits, kBodyOps);
  }

  MiniGuest cached_;
  MiniGuest plain_;
};

/// Address of body op `i` in a body_loop without padding (3 five-byte
/// MOVs ahead of the body, two-byte ADDs in it).
constexpr GVirt body_op(u32 i) { return kCodeVa + 15 + 2 * i; }

TEST_P(BatchBoundary, BreakpointMidRunArmedBeforeAndReArmedBetweenChunks) {
  Assembler a = body_loop(10);
  load(a.finish(kCodeVa));
  const GVirt hlt_va = body_op(kBodyOps) + 2 + 6;

  // Armed before the first run (with one outside the body too): exit on op
  // 30 of the first pass, 30 adds retired.
  both([&](Vcpu& v) {
    v.add_breakpoint(hlt_va);
    v.add_breakpoint(body_op(30));
  });
  Exit exit = run(10'000);
  EXPECT_EQ(exit.reason, ExitReason::kBreakpoint);
  EXPECT_EQ(exit.pc, body_op(30));
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 30u);

  // Step over it, disarm it, and run into the sixth pass with only the
  // breakpoint outside the body armed (trace fast mode stays on).
  both([](Vcpu& v) {
    v.suppress_breakpoint_once();
    v.remove_breakpoint(body_op(30));
  });
  EXPECT_EQ(run(20 + 4 * (kBodyOps + 2) + 37).reason,
            ExitReason::kInstructionLimit);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 5 * kBodyOps + 37);

  // Re-armed between chunks, earlier in the body: the next pass (a trace
  // dispatch at the trace tier, whose breakpoint answer was cached at an
  // older epoch) must stop on it.
  both([](Vcpu& v) { v.add_breakpoint(body_op(20)); });
  exit = run(10'000);
  EXPECT_EQ(exit.reason, ExitReason::kBreakpoint);
  EXPECT_EQ(exit.pc, body_op(20));
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 6 * kBodyOps + 20);

  // Finish the pass exactly at the loop head, then move the breakpoint onto
  // the JNZ, the branch half of the fused SUB+JNZ pair: the next pass is
  // one trace dispatch at the trace tier.
  both([](Vcpu& v) {
    v.remove_breakpoint(body_op(20));
    v.suppress_breakpoint_once();
  });
  EXPECT_EQ(run(kBodyOps - 20 + 2).reason, ExitReason::kInstructionLimit);
  EXPECT_EQ(cached_.vcpu.regs().pc, body_op(0));
  const GVirt jnz_va = body_op(kBodyOps) + 2;
  both([&](Vcpu& v) { v.add_breakpoint(jnz_va); });
  exit = run(10'000);
  EXPECT_EQ(exit.reason, ExitReason::kBreakpoint);
  EXPECT_EQ(exit.pc, jnz_va);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 8 * kBodyOps);

  // Disarmed again: the remaining passes run to the HLT breakpoint.
  both([&](Vcpu& v) {
    v.remove_breakpoint(jnz_va);
    v.suppress_breakpoint_once();
  });
  exit = run(10'000);
  EXPECT_EQ(exit.reason, ExitReason::kBreakpoint);
  EXPECT_EQ(exit.pc, hlt_va);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 10 * kBodyOps);
  expect_tier_ran();
}

TEST_P(BatchBoundary, DeferredIrqReleaseMidRun) {
  // The handler snapshots A (the body-op count) into C.
  constexpr GVirt kHandler = kKernelBase + 0x40000;
  Assembler handler;
  handler.mov(Reg::C, Reg::A);
  handler.iret();
  const std::vector<u8> hbytes = handler.finish(kHandler);
  for (MiniGuest* g : {&cached_, &plain_}) {
    g->machine.pwrite_bytes(mem::GuestLayout::kernel_pa(kHandler), hbytes);
    g->machine.pwrite32(mem::GuestLayout::kernel_pa(kIdt + 32 * 4),
                        kHandler);
  }
  Assembler a = body_loop(10);
  load(a.finish(kCodeVa));

  // Into the sixth pass (traced at the trace tier), then park an IRQ edge
  // until mid-run two passes later.
  EXPECT_EQ(run(5 * (kBodyOps + 2) + 10).reason,
            ExitReason::kInstructionLimit);
  both([](Vcpu& v) {
    v.regs().interrupts_enabled = true;
    v.raise_irq(0);
    v.defer_pending_irqs(v.cycles() + 2 * kBodyOps + 7);
  });
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);
  const u32 snapshot = cached_.vcpu.regs()[Reg::C];
  EXPECT_GT(snapshot % kBodyOps, 0u);  // delivered mid-run
  expect_tier_ran();
}

TEST_P(BatchBoundary, SamplerPeriodBoundaryMidRun) {
  Assembler a = body_loop(8);
  load(a.finish(kCodeVa));
  SampleLog cached_log;
  SampleLog plain_log;
  // 37 is coprime to the loop length: boundaries land all over the body.
  cached_.vcpu.set_sample_sink(&cached_log, 37);
  plain_.vcpu.set_sample_sink(&plain_log, 37);
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);

  ASSERT_GT(cached_log.samples.size(), 4u);
  expect_same_samples(cached_log, plain_log);
  expect_tier_ran();
}

TEST_P(BatchBoundary, SampleDueAtDispatchEntry) {
  // Time charged outside any instruction (here between run() calls, as a
  // hypervisor charges a view switch) makes a sample due before the next
  // op runs. Every tier fires it after that op retires, naming it — at the
  // trace tier, the first op of a dispatch that would otherwise batch the
  // whole body.
  Assembler a = body_loop(8);
  load(a.finish(kCodeVa));
  SampleLog cached_log;
  SampleLog plain_log;
  cached_.vcpu.set_sample_sink(&cached_log, 1000);
  plain_.vcpu.set_sample_sink(&plain_log, 1000);
  for (u32 pass = 3; pass < 8; ++pass) {
    // To the head of the next pass, then past the next sample boundary.
    EXPECT_EQ(run(pass == 3 ? 3 + 3 * (kBodyOps + 2) : kBodyOps + 2).reason,
              ExitReason::kInstructionLimit);
    EXPECT_EQ(cached_.vcpu.regs().pc, body_op(0));
    both([](Vcpu& v) { v.charge(1000); });
  }
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);
  ASSERT_GE(cached_log.samples.size(), 5u);
  expect_same_samples(cached_log, plain_log);
  expect_tier_ran();
}

TEST_P(BatchBoundary, BudgetEndsMidRun) {
  Assembler a = body_loop(12);
  load(a.finish(kCodeVa));
  // Budgets that end at assorted offsets inside the body, on every pass.
  for (u64 budget : {1u, 9u, 23u, 40u, 17u, 61u, 5u, 33u, 120u, 77u, 49u,
                     88u}) {
    EXPECT_EQ(run(budget).reason, ExitReason::kInstructionLimit);
  }
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 12 * kBodyOps);
  expect_tier_ran();
}

TEST_P(BatchBoundary, RunReachesThePageTail) {
  // The body starts 40 bytes before a page end, so its ops at page offsets
  // 4090, 4092 and 4094 sit in the page-tail region, where fetching probes
  // (and, the first time, misses on) the next page.
  constexpr u32 kBodyAt = kPageSize - 40;
  Assembler a = body_loop(3, kBodyAt);
  load(a.finish(kCodeVa));
  // Prologue (3 MOVs + JMP), then body ops 0..17: the chunk ends right
  // after the first tail op, whose fetch probed the next page.
  EXPECT_EQ(run(4 + 18).reason, ExitReason::kInstructionLimit);
  EXPECT_EQ(cached_.vcpu.regs().pc, kCodeVa + kPageSize - 4);
  for (u64 budget : {50u, 19u}) {
    EXPECT_EQ(run(budget).reason, ExitReason::kInstructionLimit);
  }
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 3 * kBodyOps);
}

TEST_P(BatchBoundary, MemoryFormOrInsideRunIsNotBatched) {
  // `0B 0F` decodes as OR ecx, [edi] — the odd-return-address byte pair of
  // the paper's Figure 3. It reads memory, so it must split the run.
  constexpr GVirt kData = kKernelBase + 0x50000;
  Assembler a;
  a.mov_imm(Reg::A, 0);
  a.mov_imm(Reg::B, 1);
  a.mov_imm(Reg::C, 0x10);
  a.mov_imm(Reg::DI, kData);
  a.mov_imm(Reg::D, 8);
  auto head = a.make_label();
  a.bind(head);
  for (u32 i = 0; i < 12; ++i) a.add(Reg::A, Reg::B);
  const u32 or_at = a.size();
  a.or_(Reg::C, Reg::DI);  // register form, patched to the memory form
  for (u32 i = 0; i < 12; ++i) a.add(Reg::A, Reg::B);
  a.sub(Reg::D, Reg::B);
  a.jnz_near(head);
  a.hlt();
  std::vector<u8> bytes = a.finish(kCodeVa);
  ASSERT_EQ(bytes[or_at], 0x0B);
  bytes[or_at + 1] = 0x0F;  // mod 00, reg ecx, rm edi
  for (MiniGuest* g : {&cached_, &plain_})
    g->machine.pwrite32(mem::GuestLayout::kernel_pa(kData), 0x0F00);
  load(bytes);

  EXPECT_EQ(run(20).reason, ExitReason::kInstructionLimit);
  EXPECT_EQ(run(10'000).reason, ExitReason::kHalt);
  EXPECT_EQ(cached_.vcpu.regs()[Reg::C], 0x0F10u);  // memory, not edi
  EXPECT_EQ(cached_.vcpu.regs()[Reg::A], 8 * 24u);
  expect_tier_ran();
}

// --- data faults inside a hot loop -----------------------------------------
//
// Each memory op the tiers share a definition of (exec_mem) faults on an
// unmapped address after kFaultPasses - 1 clean passes of a promoted loop.
// The run stops at the head of the faulting pass first, so at the trace
// tier the faulting pass is exactly one trace dispatch that ends on the
// fault. Beyond parity with the uncached interpreter, each case checks the
// SP the fault leaves (a faulting PUSH or CALL has moved it), which parity
// alone cannot see: every tier runs the same definition.

constexpr u32 kFaultPasses = 40;
constexpr u32 kLoopCount = 1000;  // D's start: the loop never runs out
constexpr GVirt kMapEnd = kKernelBase + 8 * 1024 * 1024;  // MiniGuest's 8 MiB

/// A fault loop: B = 1, D = kLoopCount, the case's `setup`, then
/// head: `body` (which emits the memory op and returns its code offset),
/// SUB D,B, JNZ head; HLT (never reached).
struct FaultLoop {
  std::vector<u8> bytes;
  GVirt op_va = 0;
  u64 prologue = 0;  // instructions before the first pass
  u64 pass_len = 0;  // instructions per pass
};

template <class Setup, class Body>
FaultLoop fault_loop(u64 setup_insns, Setup setup, u64 body_insns,
                     Body body) {
  Assembler a;
  a.mov_imm(Reg::B, 1);
  a.mov_imm(Reg::D, kLoopCount);
  setup(a);
  auto head = a.make_label();
  a.bind(head);
  const u32 op_at = body(a);
  a.sub(Reg::D, Reg::B);
  a.jnz_near(head);
  a.hlt();
  return {a.finish(kCodeVa), kCodeVa + op_at, 2 + setup_insns,
          body_insns + 2};
}

/// Emit `emit` and return the code offset it starts at.
template <class F>
u32 at(Assembler& a, F emit) {
  const u32 offset = a.size();
  emit();
  return offset;
}

class DataFault : public BatchBoundary {
 protected:
  /// Run `loop` into its faulting pass; the fault must land on the memory
  /// op with SP at `expected_sp` in every tier. A non-zero `hole` is a page
  /// unmapped at the head of the faulting pass.
  void expect_fault(const FaultLoop& loop, u32 expected_sp, GVirt hole = 0) {
    load(loop.bytes);
    EXPECT_EQ(run(loop.prologue + (kFaultPasses - 1) * loop.pass_len).reason,
              ExitReason::kInstructionLimit);
    EXPECT_EQ(cached_.vcpu.regs()[Reg::D], kLoopCount - (kFaultPasses - 1));
    if (hole != 0) unmap_page(hole);
    const TraceCache::Stats before = cached_.vcpu.trace_cache().stats();
    const u64 insns_before = cached_.vcpu.instructions_retired();

    const Exit exit = run(10'000);
    EXPECT_EQ(exit.reason, ExitReason::kFetchFault);
    EXPECT_EQ(exit.pc, loop.op_va);
    EXPECT_EQ(cached_.vcpu.regs()[Reg::SP], expected_sp);
    if (trace_tier()) {
      const TraceCache::Stats& after = cached_.vcpu.trace_cache().stats();
      EXPECT_EQ(after.dispatched - before.dispatched, 1u);
      EXPECT_EQ(after.side_exits - before.side_exits, 1u);
      EXPECT_EQ(after.trace_insns - before.trace_insns,
                cached_.vcpu.instructions_retired() - insns_before);
    } else {
      EXPECT_GT(cached_.vcpu.block_cache().stats().insn_hits, kFaultPasses);
    }
  }

  /// Point both vCPUs at a fresh page directory mapping the kernel half
  /// minus the page at `hole` (the CR3 write flushes the TLB).
  void unmap_page(GVirt hole) {
    for (MiniGuest* g : {&cached_, &plain_}) {
      mem::GuestPageTableBuilder builder(g->machine, 0x100000, 0x200000);
      const GPhys dir = builder.create_directory();
      const u32 below = (hole - kKernelBase) / kPageSize;
      builder.map(dir, kKernelBase, 0, below);
      builder.map(dir, hole + kPageSize, (below + 1) * kPageSize,
                  g->machine.guest_phys_pages() - below - 1);
      g->vcpu.set_cr3(dir);
    }
  }

  /// Fill `count` stack words from `sp` up with `value` on both machines.
  void fill_stack(GVirt sp, u32 count, u32 value) {
    for (MiniGuest* g : {&cached_, &plain_})
      for (u32 k = 0; k < count; ++k)
        g->machine.pwrite32(mem::GuestLayout::kernel_pa(sp + 4 * k), value);
  }
};

constexpr GVirt kFaultData = kKernelBase + 0x50000;
// SP starts for the stack cases: one word per pass, so pass kFaultPasses
// is the first to step off the kernel half (downwards) or the mapping's
// end (upwards).
constexpr GVirt kSpDown = kKernelBase + 4 * (kFaultPasses - 1);
constexpr GVirt kSpUp = kMapEnd - 4 * (kFaultPasses - 1);
// Pointer start for the page-walking cases: one page per pass (a TLB miss
// each), off the mapping's end on pass kFaultPasses.
constexpr GVirt kWalkFrom = kMapEnd - (kFaultPasses - 1) * kPageSize;

TEST_P(DataFault, Push) {
  const FaultLoop loop = fault_loop(
      1, [](Assembler& a) { a.mov_imm(Reg::SP, kSpDown); }, 1,
      [](Assembler& a) { return at(a, [&] { a.push(Reg::B); }); });
  expect_fault(loop, kKernelBase - 4);  // moved before the faulting write
}

TEST_P(DataFault, Pop) {
  const FaultLoop loop = fault_loop(
      1, [](Assembler& a) { a.mov_imm(Reg::SP, kSpUp); }, 1,
      [](Assembler& a) { return at(a, [&] { a.pop(Reg::C); }); });
  expect_fault(loop, kMapEnd);  // not bumped past the faulting read
}

TEST_P(DataFault, Load) {
  const FaultLoop loop = fault_loop(
      2,
      [](Assembler& a) {
        a.mov_imm(Reg::SI, kWalkFrom - 8);
        a.mov_imm(Reg::FP, kPageSize);
      },
      2,
      [](Assembler& a) {
        const u32 op = at(a, [&] { a.load(Reg::C, Reg::SI, 8); });
        a.add(Reg::SI, Reg::FP);
        return op;
      });
  expect_fault(loop, kStackTop);
}

TEST_P(DataFault, Store) {
  const FaultLoop loop = fault_loop(
      2,
      [](Assembler& a) {
        a.mov_imm(Reg::DI, kWalkFrom + 8);
        a.mov_imm(Reg::FP, kPageSize);
      },
      2,
      [](Assembler& a) {
        const u32 op = at(a, [&] { a.store(Reg::DI, -8, Reg::B); });
        a.add(Reg::DI, Reg::FP);
        return op;
      });
  expect_fault(loop, kStackTop);
}

TEST_P(DataFault, LoadAbs) {
  // A fixed address: its page is unmapped at the head of the faulting pass.
  const FaultLoop loop = fault_loop(
      0, [](Assembler&) {}, 1,
      [](Assembler& a) { return at(a, [&] { a.load_abs(kFaultData); }); });
  expect_fault(loop, kStackTop, kFaultData);
}

TEST_P(DataFault, StoreAbs) {
  const FaultLoop loop = fault_loop(
      0, [](Assembler&) {}, 1,
      [](Assembler& a) { return at(a, [&] { a.store_abs(kFaultData); }); });
  expect_fault(loop, kStackTop, kFaultData);
}

TEST_P(DataFault, Leave) {
  // LEAVE sets SP = FP before its read, so the fault leaves SP there.
  const FaultLoop loop = fault_loop(
      2,
      [](Assembler& a) {
        a.mov_imm(Reg::SI, kWalkFrom);
        a.mov_imm(Reg::C, kPageSize);
      },
      3,
      [](Assembler& a) {
        a.mov(Reg::FP, Reg::SI);
        const u32 op = at(a, [&] { a.leave(); });
        a.add(Reg::SI, Reg::C);
        return op;
      });
  expect_fault(loop, kMapEnd);
}

TEST_P(DataFault, Call) {
  // A call to the next instruction: each pass pushes one return address.
  const FaultLoop loop = fault_loop(
      1, [](Assembler& a) { a.mov_imm(Reg::SP, kSpDown); }, 1,
      [](Assembler& a) {
        auto next = a.make_label();
        const u32 op = at(a, [&] { a.call(next); });
        a.bind(next);
        return op;
      });
  expect_fault(loop, kKernelBase - 4);  // moved before the faulting write
}

TEST_P(DataFault, Ret) {
  // Each pass returns to the instruction after the RET through a stack
  // prefilled with that address.
  const FaultLoop loop = fault_loop(
      1, [](Assembler& a) { a.mov_imm(Reg::SP, kSpUp); }, 1,
      [](Assembler& a) { return at(a, [&] { a.ret(); }); });
  fill_stack(kSpUp, kFaultPasses - 1, loop.op_va + 1);
  expect_fault(loop, kMapEnd);  // not bumped past the faulting read
}

INSTANTIATE_TEST_SUITE_P(Tiers, DataFault, ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "TraceTier"
                                                   : "BlockTier";
                         });

INSTANTIATE_TEST_SUITE_P(Tiers, BatchBoundary, ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "TraceTier"
                                                   : "BlockTier";
                         });

}  // namespace
}  // namespace fc::cpu
