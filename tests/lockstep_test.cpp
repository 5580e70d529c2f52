// Lockstep byte-equivalence: two identical guest systems — one with the
// decoded-block cache, one without — are stepped one instruction at a time
// through the full integration workload (engine enabled, app bound to its
// view). After every step the architectural state (registers, pc, flags,
// mode), the simulated cycle count, and the raw VM exit must match exactly.
// This is the strongest transparency check the cache has: any divergence in
// fetch semantics, decode results, TLB charging, or exit behaviour shows up
// at the exact step it happens.
//
// One-instruction steps never let a tier batch (every run() is one
// instruction long), so the chunked variants drive both guests with runs of
// a seeded random length in [1, 300] instead and compare after each chunk:
// that is where the block tier's straight-line batch and the trace tier's
// segments meet budgets, breakpoints, IRQ releases and the page tail.
#include <gtest/gtest.h>

#include "harness/harness.hpp"

namespace fc {
namespace {

enum class Tier { kUncached, kBlockOnly, kTrace };

struct LockstepGuest {
  explicit LockstepGuest(Tier tier) {
    sys.vcpu().set_block_cache_enabled(tier != Tier::kUncached);
    sys.vcpu().set_trace_cache_enabled(tier == Tier::kTrace);
    // Promote every block on its first taken branch: maximises trace
    // coverage, so the lockstep sweep exercises the dispatcher (and its
    // side exits) on every app rather than only the hottest loops.
    if (tier == Tier::kTrace) sys.vcpu().set_trace_hot_threshold(1);
    engine = std::make_unique<core::FaceChangeEngine>(sys.hv(),
                                                      sys.os().kernel());
    engine->enable();
  }

  void start(const std::string& app, const std::string& view_app,
             u32 iterations) {
    engine->bind(app, engine->load_view(harness::profile_of(view_app)));
    apps::AppScenario scenario = apps::make_app(view_app == app ? app : "gzip",
                                                iterations);
    pid = sys.os().spawn(app, scenario.model);
    scenario.install_environment(sys.os());
  }

  harness::GuestSystem sys;
  std::unique_ptr<core::FaceChangeEngine> engine;
  u32 pid = 0;
};

/// Run both guests to completion in chunks of up to `max_chunk`
/// instructions (lengths drawn from a generator seeded with `seed`; 1 means
/// single steps), asserting equality after every chunk.
void run_lockstep(LockstepGuest& cached, LockstepGuest& plain,
                  Cycles max_cycles, Tier cached_tier = Tier::kBlockOnly,
                  u64 max_chunk = 1, u64 seed = 0) {
  ASSERT_EQ(cached.pid, plain.pid);
  u64 steps = 0;
  u64 rng = seed;
  std::optional<hv::RunOutcome> oc, op;
  while (cached.sys.vcpu().cycles() < max_cycles) {
    // splitmix64: the chunk sequence is a pure function of the seed.
    rng += 0x9E3779B97F4A7C15ull;
    u64 z = rng;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    const u64 chunk = 1 + (z ^ (z >> 31)) % max_chunk;
    cpu::Exit ec, ep;
    oc = cached.sys.hv().run_chunk(chunk, &ec);
    op = plain.sys.hv().run_chunk(chunk, &ep);
    ++steps;
    const cpu::Regs& rc = cached.sys.vcpu().regs();
    const cpu::Regs& rp = plain.sys.vcpu().regs();
    bool same = ec.reason == ep.reason && ec.pc == ep.pc && oc == op &&
                rc.gpr == rp.gpr && rc.pc == rp.pc && rc.zf == rp.zf &&
                rc.mode == rp.mode &&
                cached.sys.vcpu().cycles() == plain.sys.vcpu().cycles() &&
                cached.sys.vcpu().instructions_retired() ==
                    plain.sys.vcpu().instructions_retired() &&
                cached.sys.hv().machine().mmu().stats().tlb_misses ==
                    plain.sys.hv().machine().mmu().stats().tlb_misses;
    ASSERT_TRUE(same) << "lockstep divergence at chunk " << steps
                      << " (length " << chunk << ")"
                      << ": cached pc=0x" << std::hex << rc.pc
                      << " cycles=" << std::dec << cached.sys.vcpu().cycles()
                      << " tlb_misses="
                      << cached.sys.hv().machine().mmu().stats().tlb_misses
                      << " insns=" << cached.sys.vcpu().instructions_retired()
                      << " exit=" << static_cast<int>(ec.reason)
                      << " | uncached pc=0x" << std::hex << rp.pc
                      << " cycles=" << std::dec << plain.sys.vcpu().cycles()
                      << " tlb_misses="
                      << plain.sys.hv().machine().mmu().stats().tlb_misses
                      << " insns=" << plain.sys.vcpu().instructions_retired()
                      << " exit=" << static_cast<int>(ep.reason);
    if (oc.has_value()) break;  // both ended identically (checked above)
    if ((steps & 0x3FF) == 0 &&
        cached.sys.os().task_zombie_or_dead(cached.pid))
      break;
  }
  // The workload actually ran to completion on both sides, and the tier
  // under test actually carried execution.
  EXPECT_TRUE(cached.sys.os().task_zombie_or_dead(cached.pid));
  EXPECT_TRUE(plain.sys.os().task_zombie_or_dead(plain.pid));
  EXPECT_EQ(plain.sys.vcpu().block_cache().stats().insn_hits, 0u);
  if (cached_tier == Tier::kTrace) {
    EXPECT_GT(cached.sys.vcpu().trace_cache().stats().dispatched, 0u);
    EXPECT_GT(cached.sys.vcpu().trace_cache().stats().trace_insns, 1000u);
  } else {
    EXPECT_GT(cached.sys.vcpu().block_cache().stats().insn_hits, 1000u);
    EXPECT_EQ(cached.sys.vcpu().trace_cache().stats().dispatched, 0u);
  }
}

class LockstepEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(LockstepEquivalence, CachedAndUncachedVcpusNeverDiverge) {
  LockstepGuest cached(Tier::kBlockOnly);
  LockstepGuest plain(Tier::kUncached);
  cached.start(GetParam(), GetParam(), 6);
  plain.start(GetParam(), GetParam(), 6);
  run_lockstep(cached, plain, 900'000'000);
}

INSTANTIATE_TEST_SUITE_P(Apps, LockstepEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// The trace tier against the uncached interpreter, hot threshold 1 so
// essentially every loop is promoted and dispatched. Per-step equality of
// registers, cycles and TLB-miss counts is the strongest form of the
// tiering contract: every hoisted check, fused pair, batched segment and
// side exit must be invisible to the architecture and the perf model.
class TraceLockstepEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(TraceLockstepEquivalence, TraceTierAndUncachedVcpusNeverDiverge) {
  LockstepGuest traced(Tier::kTrace);
  LockstepGuest plain(Tier::kUncached);
  traced.start(GetParam(), GetParam(), 6);
  plain.start(GetParam(), GetParam(), 6);
  run_lockstep(traced, plain, 900'000'000, Tier::kTrace);
}

INSTANTIATE_TEST_SUITE_P(Apps, TraceLockstepEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

// The hostile path: a mismatched view forces UD2 traps, recoveries (code
// rewrites through the write barrier), and instant-recovery checks — the
// cache must stay byte-equivalent through all of it.
TEST(LockstepEquivalence2, RecoveryHeavyRunNeverDiverges) {
  LockstepGuest cached(Tier::kBlockOnly);
  LockstepGuest plain(Tier::kUncached);
  cached.start("intruder", "top", 4);
  plain.start("intruder", "top", 4);
  run_lockstep(cached, plain, 600'000'000);
  EXPECT_GT(cached.engine->recovery_log().size(), 0u);
  EXPECT_EQ(cached.engine->recovery_log().size(),
            plain.engine->recovery_log().size());
}

// Same hostile path at the trace tier: recoveries rewrite code frames that
// may hold live traces, so the write barrier's trace retirement is on the
// critical path of every step.
TEST(LockstepEquivalence2, TraceTierRecoveryHeavyRunNeverDiverges) {
  LockstepGuest traced(Tier::kTrace);
  LockstepGuest plain(Tier::kUncached);
  traced.start("intruder", "top", 4);
  plain.start("intruder", "top", 4);
  run_lockstep(traced, plain, 600'000'000, Tier::kTrace);
  EXPECT_GT(traced.engine->recovery_log().size(), 0u);
  EXPECT_EQ(traced.engine->recovery_log().size(),
            plain.engine->recovery_log().size());
}

// Chunked lockstep: runs of 1..300 instructions, so each tier batches the
// way it does under Hypervisor::run (the block tier's straight-line batch,
// trace segments and fast mode) while FACE-CHANGE's context-switch and
// resume breakpoints stay armed. The seed is the app name, so every app
// replays its own fixed chunk sequence.
constexpr u64 kMaxChunk = 300;

u64 name_seed(const std::string& name) {
  u64 h = 0xCBF29CE484222325ull;  // FNV-1a
  for (char c : name) h = (h ^ static_cast<u8>(c)) * 0x100000001B3ull;
  return h;
}

class ChunkedLockstep : public ::testing::TestWithParam<std::string> {};

TEST_P(ChunkedLockstep, BlockTierAndUncachedNeverDivergeAcrossChunks) {
  LockstepGuest cached(Tier::kBlockOnly);
  LockstepGuest plain(Tier::kUncached);
  cached.start(GetParam(), GetParam(), 6);
  plain.start(GetParam(), GetParam(), 6);
  run_lockstep(cached, plain, 900'000'000, Tier::kBlockOnly, kMaxChunk,
               name_seed(GetParam()));
}

TEST_P(ChunkedLockstep, TraceTierAndUncachedNeverDivergeAcrossChunks) {
  LockstepGuest traced(Tier::kTrace);
  LockstepGuest plain(Tier::kUncached);
  traced.start(GetParam(), GetParam(), 6);
  plain.start(GetParam(), GetParam(), 6);
  run_lockstep(traced, plain, 900'000'000, Tier::kTrace, kMaxChunk,
               name_seed(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Apps, ChunkedLockstep,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(ChunkedLockstep2, RecoveryHeavyRunNeverDiverges) {
  LockstepGuest cached(Tier::kBlockOnly);
  LockstepGuest plain(Tier::kUncached);
  cached.start("intruder", "top", 4);
  plain.start("intruder", "top", 4);
  run_lockstep(cached, plain, 600'000'000, Tier::kBlockOnly, kMaxChunk,
               name_seed("intruder"));
  EXPECT_GT(cached.engine->recovery_log().size(), 0u);
  EXPECT_EQ(cached.engine->recovery_log().size(),
            plain.engine->recovery_log().size());
}

TEST(ChunkedLockstep2, TraceTierRecoveryHeavyRunNeverDiverges) {
  LockstepGuest traced(Tier::kTrace);
  LockstepGuest plain(Tier::kUncached);
  traced.start("intruder", "top", 4);
  plain.start("intruder", "top", 4);
  run_lockstep(traced, plain, 600'000'000, Tier::kTrace, kMaxChunk,
               name_seed("intruder"));
  EXPECT_GT(traced.engine->recovery_log().size(), 0u);
  EXPECT_EQ(traced.engine->recovery_log().size(),
            plain.engine->recovery_log().size());
}

}  // namespace
}  // namespace fc
