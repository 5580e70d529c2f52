// Decoded-block cache tests: hit behaviour, cycle parity against the
// uncached interpreter, self-modifying-code invalidation through the
// HostMemory write barrier (a guest store over a cached block must be
// observed on the very next step), code-load invalidation (the recovery
// path rewriting UD2 filler), a harness-level store over a recovered
// function body under a live view, and the decode store under shared frames
// (suffix-shared runs; adopted blocks count exactly as private decodes and
// are rebuilt privately once a write unshares their frame).
#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "isa/assembler.hpp"
#include "mem/shared_frames.hpp"
#include "vcpu/decode_store.hpp"
#include "vcpu/vcpu.hpp"

namespace fc::cpu {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr GVirt kCodeVa = kKernelBase + 0x10000;
constexpr GVirt kStackTop = kKernelBase + 0x20000;
constexpr GVirt kIdt = kKernelBase + 0x30000;
constexpr GVirt kEsp0 = kKernelBase + 0x30400;

/// Bare machine + vCPU with the kernel half direct-mapped (the vcpu_test
/// setup). A plain struct so tests can spin up a second, independent guest
/// for cached-vs-uncached comparisons.
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

class BlockCacheFixture : public ::testing::Test {
 protected:
  MiniGuest g_;
};

TEST_F(BlockCacheFixture, HotLoopIsServedFromDecodedBlocks) {
  // Pin execution to the block tier: with tracing on, the hot loop would be
  // promoted after a few iterations and insn_hits would stop growing.
  g_.vcpu.set_trace_cache_enabled(false);
  Assembler a;
  a.mov_imm(Reg::A, 200);
  auto loop = a.make_label();
  a.bind(loop);
  a.sub_imm_a(1);
  a.jnz(loop);
  a.hlt();
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  const BlockCache::Stats& stats = g_.vcpu.block_cache().stats();
  // ~400 loop instructions served from a handful of decodes.
  EXPECT_GT(stats.insn_hits, 300u);
  EXPECT_GT(stats.blocks_built, 0u);
  EXPECT_LT(stats.insns_decoded, 20u);
}

TEST_F(BlockCacheFixture, CacheOnAndOffComputeIdenticalResults) {
  auto program = [] {
    Assembler a;
    a.mov_imm(Reg::A, 50);
    a.mov_imm(Reg::B, 3);
    auto loop = a.make_label();
    a.bind(loop);
    a.add(Reg::C, Reg::B);
    a.sub_imm_a(1);
    a.jnz(loop);
    a.hlt();
    return a;
  };
  Assembler cached = program();
  g_.load(cached);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);

  MiniGuest fresh;
  fresh.vcpu.set_block_cache_enabled(false);
  Assembler uncached = program();
  fresh.load(uncached);
  EXPECT_EQ(fresh.run().reason, ExitReason::kHalt);
  EXPECT_EQ(fresh.vcpu.regs().gpr, g_.vcpu.regs().gpr);
  EXPECT_EQ(fresh.vcpu.regs().pc, g_.vcpu.regs().pc);
  // Cycle parity, not just architectural parity: simulated time feeds back
  // into guest-visible state (rdtsc, IRQ release points).
  EXPECT_EQ(fresh.vcpu.cycles(), g_.vcpu.cycles());
  EXPECT_EQ(fresh.vcpu.block_cache().stats().insn_hits, 0u);
  EXPECT_GT(g_.vcpu.block_cache().stats().insn_hits, 0u);
}

// A guest store that overwrites an already-cached-and-executed instruction:
// the rewritten bytes must take effect on the very next execution.
TEST_F(BlockCacheFixture, GuestStoreOverCachedBlockIsObservedNextStep) {
  Assembler a;
  // Pass 1 executes `mov D, 0x1111` (caching its block), then patches that
  // very instruction's immediate to 0x2222 and loops back to re-execute it.
  auto loop = a.make_label();
  a.bind(loop);                 // kCodeVa + 0
  a.mov_imm(Reg::D, 0x1111);    // 5 bytes; the immediate lives at kCodeVa + 1
  a.mov(Reg::A, Reg::C);
  a.cmp_imm_a(0);
  auto first_pass = a.make_label();
  a.jz(first_pass);
  a.hlt();                      // pass 2 ends here
  a.bind(first_pass);
  a.mov_imm(Reg::A, 0x2222);
  a.store_abs(kCodeVa + 1);     // self-modifying store over cached code
  a.mov_imm(Reg::C, 1);
  a.jmp(loop);
  g_.load(a);

  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  // The second pass saw the patched immediate, not the stale decode.
  EXPECT_EQ(g_.vcpu.regs()[Reg::D], 0x2222u);
  EXPECT_GE(g_.vcpu.block_cache().stats().inval_guest_write, 1u);
  EXPECT_GT(g_.vcpu.block_cache().stats().insn_hits, 0u);
}

// The recovery path: code that traps as UD2 gets rewritten (through the
// write barrier, attributed as a code load) and must execute its new bytes
// immediately on resume — a stale cached UD2 decode would re-trap forever.
TEST_F(BlockCacheFixture, CodeLoadRewriteInvalidatesCachedUd2Decode) {
  Assembler a;
  a.mov_imm(Reg::A, 7);
  a.ud2();  // stands in for view filler
  g_.load(a);
  Exit exit = g_.run();
  ASSERT_EQ(exit.reason, ExitReason::kInvalidOpcode);
  const GVirt trap_pc = exit.pc;
  // Trap once more so the UD2's decode is definitely cache-resident.
  ASSERT_EQ(g_.run().reason, ExitReason::kInvalidOpcode);

  // "Recover" the function: overwrite the UD2 with `add_imm_a 1; hlt`, the
  // way RecoveryEngine copies pristine bytes into a shadow frame.
  {
    mem::HostMemory::WriteCauseScope cause(g_.machine.host(),
                                           mem::FrameWriteCause::kCodeLoad);
    Assembler patch;
    patch.add_imm_a(1);
    patch.hlt();
    g_.machine.pwrite_bytes(mem::GuestLayout::kernel_pa(trap_pc),
                            patch.finish(trap_pc));
  }
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);  // runs the new code
  EXPECT_EQ(g_.vcpu.regs()[Reg::A], 8u);
  EXPECT_GE(g_.vcpu.block_cache().stats().inval_code_load, 1u);
}

TEST_F(BlockCacheFixture, DisablingDropsResidentBlocks) {
  Assembler a;
  a.mov_imm(Reg::A, 3);
  auto loop = a.make_label();
  a.bind(loop);
  a.sub_imm_a(1);
  a.jnz(loop);
  a.hlt();
  g_.load(a);
  EXPECT_EQ(g_.run().reason, ExitReason::kHalt);
  EXPECT_GT(g_.vcpu.block_cache().size(), 0u);
  g_.vcpu.set_block_cache_enabled(false);
  EXPECT_EQ(g_.vcpu.block_cache().size(), 0u);
}

}  // namespace
}  // namespace fc::cpu

// ---------------------------------------------------------------------------
// Harness level: a guest store over a *recovered function body* while its
// view is active must invalidate the shadow frame's cached decodes — the
// very next fetch of the overwritten address must decode the new bytes, and
// the run must keep making progress (re-trap → re-recovery), not replay the
// stale pristine decode.
// ---------------------------------------------------------------------------
namespace fc {
namespace {

TEST(BlockCacheRecovery, StoreOverRecoveredFunctionBodyIsObserved) {
  harness::GuestSystem sys;
  core::FaceChangeEngine engine(sys.hv(), sys.os().kernel());
  engine.enable();
  core::KernelViewConfig cfg = harness::profile_of("top");
  cfg.app_name = "intruder";
  u32 view = engine.load_view(cfg);
  engine.bind("intruder", view);

  // Run an ext4-heavy workload under top's view until something recovers.
  apps::AppScenario gzip = apps::make_app("gzip", 6);
  u32 pid = sys.os().spawn("intruder", gzip.model);
  Cycles budget = 600'000'000;
  while (engine.recovery_log().size() == 0 && sys.os().task_alive(pid) &&
         budget > 0) {
    sys.run_for(5'000'000);
    budget -= 5'000'000;
  }
  ASSERT_GT(engine.recovery_log().size(), 0u);
  const core::RecoveryEvent& ev = engine.recovery_log().events().front();
  ASSERT_GT(ev.recovered_end, ev.recovered_start);

  // Pin the intruder's view so stage-1 + EPT resolve the recovered body to
  // its *shadow* frame (never the pristine boot frame), then make sure a
  // decode of the recovered bytes is cache-resident.
  engine.force_activate(view);
  cpu::BlockCache& cache = sys.vcpu().block_cache();
  mem::Mmu& mmu = sys.hv().machine().mmu();
  auto frame = mmu.translate_page(page_base(ev.recovered_start));
  ASSERT_TRUE(frame.has_value());
  cpu::BlockCache::Fetched before = cache.fetch(
      sys.hv().machine().host(), *frame, page_offset(ev.recovered_start),
      ev.recovered_start);
  ASSERT_NE(before.insn, nullptr);
  EXPECT_NE(before.insn->op, isa::Op::kUd2);  // the body was recovered
  const u32 gen_before = cache.frame_generation(*frame);
  const u64 smc_invals_before = cache.stats().inval_guest_write;

  // Overwrite the first bytes of the recovered body with UD2 through the
  // guest store path (what in-guest SMC — or an attacker — would do).
  mmu.write8(ev.recovered_start, 0x0F);
  mmu.write8(ev.recovered_start + 1, 0x0B);
  EXPECT_EQ(cache.frame_generation(*frame), gen_before + 1);
  EXPECT_GE(cache.stats().inval_guest_write, smc_invals_before + 1);

  // Observed on the very next fetch: the stale block is rebuilt and the
  // overwritten address now decodes as UD2.
  cpu::BlockCache::Fetched after = cache.fetch(
      sys.hv().machine().host(), *frame, page_offset(ev.recovered_start),
      ev.recovered_start);
  ASSERT_NE(after.insn, nullptr);
  EXPECT_GT(after.insns_decoded, 0u);  // rebuilt, not served stale
  EXPECT_EQ(after.insn->op, isa::Op::kUd2);
  cache.drop_cursor();

  // The run keeps making progress: executing the clobbered body traps on
  // the new bytes and recovery restores it again.
  hv::RunOutcome outcome = sys.run_until_exit(pid, 600'000'000);
  EXPECT_NE(outcome, hv::RunOutcome::kGuestFault);
  EXPECT_TRUE(sys.os().task_zombie_or_dead(pid));
}

// ---------------------------------------------------------------------------
// Decode store: shared-frame decodes, once per image.
// ---------------------------------------------------------------------------

TEST(DecodeStore, IndexesEveryStartOnceAndSharesSuffixes) {
  std::vector<u8> code(kPageSize, 0x00);  // 0x00 does not decode
  code[0] = code[1] = code[2] = 0x90;     // nop; nop; nop; ret
  code[3] = 0xC3;
  mem::SharedFrameStore pages;
  const u32 page = pages.add_page(code);
  pages.freeze();
  cpu::DecodeStore store(pages);

  const auto tail = store.run(page, 2);  // nop; ret
  ASSERT_EQ(tail.size(), 2u);
  // A chain that reaches an indexed start takes that start's run as its
  // tail; the inner start 1 is then served from the index.
  const auto head = store.run(page, 0);
  ASSERT_EQ(head.size(), 4u);
  EXPECT_EQ(head[3].op, isa::Op::kRet);
  const auto inner = store.run(page, 1);
  EXPECT_EQ(inner.data(), head.data() + 1);
  EXPECT_EQ(inner.size(), 3u);
  EXPECT_EQ(store.run(page, 2).data(), tail.data());
  EXPECT_TRUE(store.run(page, 4).empty());  // undecodable: nothing indexed

  const cpu::DecodeStore::Stats stats = store.stats();
  EXPECT_EQ(stats.insns_decoded, 4u);  // 2 + 2: the join copied, not decoded
  EXPECT_EQ(stats.starts, 4u);         // offsets 0..3, each once
  EXPECT_EQ(stats.adoptions, 2u);      // run(1) and run(2) again
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(DecodeStore, AdoptedBlocksCountAsPrivateDecodesAndUnshareOnWrite) {
  // 200 nops and a ret: the store keeps the whole run, a block takes at
  // most kMaxBlockInsns of it.
  std::vector<u8> code(kPageSize, 0x00);
  std::fill_n(code.begin(), 200, u8{0x90});
  code[200] = 0xC3;
  mem::SharedFrameStore pages;
  const u32 page = pages.add_page(code);
  pages.freeze();
  cpu::DecodeStore store(pages);
  mem::HostMemory host;
  host.attach_store(&pages);
  const HostFrame frame = host.adopt_shared(page);

  cpu::BlockCache adopted;
  adopted.attach_decode_store(&store);
  cpu::BlockCache decoded;  // no store: the private path
  host.add_code_write_sink(&adopted);
  host.add_code_write_sink(&decoded);

  const cpu::BlockCache::Fetched a = adopted.fetch(host, frame, 0, 0);
  const cpu::BlockCache::Fetched d = decoded.fetch(host, frame, 0, 0);
  ASSERT_NE(a.insn, nullptr);
  ASSERT_NE(d.insn, nullptr);
  EXPECT_EQ(a.insns_decoded, cpu::BlockCache::kMaxBlockInsns);
  EXPECT_EQ(a.insns_decoded, d.insns_decoded);  // same cost_decode charge
  EXPECT_EQ(adopted.stats().blocks_built, decoded.stats().blocks_built);
  EXPECT_EQ(adopted.stats().insns_decoded, decoded.stats().insns_decoded);
  const std::span<const isa::Instruction> run = store.run(page, 0);
  ASSERT_EQ(run.size(), 201u);
  EXPECT_EQ(adopted.peek(frame, 0)->insns.data(), run.data());
  EXPECT_NE(decoded.peek(frame, 0)->insns.data(), run.data());

  // A divergent write promotes the frame and fires the barrier: the adopted
  // block goes stale and the rebuild decodes the VM's own bytes privately.
  adopted.drop_cursor();
  host.write8(frame, 5, 0xC3);
  EXPECT_TRUE(host.is_private(frame));
  EXPECT_EQ(adopted.frame_generation(frame), 1u);
  EXPECT_EQ(adopted.peek(frame, 0), nullptr);
  const cpu::BlockCache::Fetched rebuilt = adopted.fetch(host, frame, 0, 0);
  ASSERT_NE(rebuilt.insn, nullptr);
  EXPECT_EQ(rebuilt.insns_decoded, 6u);  // five nops and the new ret
  EXPECT_NE(adopted.peek(frame, 0)->insns.data(), run.data());
  // The store's run is untouched.
  EXPECT_EQ(store.run(page, 0).data(), run.data());
  EXPECT_EQ(run.size(), 201u);
  EXPECT_EQ(run[5].op, isa::Op::kNop);
  host.remove_code_write_sink(&adopted);
  host.remove_code_write_sink(&decoded);
}

}  // namespace
}  // namespace fc
