// fcbench driver: runs one benchmark workload against the simulator
// libraries and writes every fact the metrics are derived from as one JSON
// document (fcbench/run.py turns it into the end-to-end and per-layer
// metrics and checks the outputs).
//
// Layers are measured from outside: the driver times calls into public
// functions (setup, FleetRunner::run, GuestSystem construction, run_for /
// run_until_exit, engine enable/adopt/force_activate, run_attack,
// schedule_connection) and reads the public Stats accessors after each VM's
// drive phase, inside the FleetOptions::workload hook for fleet VMs.
//
// Workloads (see METRICS.md for why each exists):
//   fleet_churn       hundreds of short-lived COW VMs, 12 apps round-robin
//   unixbench_single  the Fig. 6 suite, baseline vs FACE-CHANGE, one thread
//   attack_recovery   Table II attacks + a cross-view COW fleet
//   http_open_loop    8-VM open-loop apache fleet sweep + UDP flood knee
//
// A run repeats its workload in rounds until --seconds have passed (every
// round with the same seeded inputs, so every round must produce the same
// simulated-state digest), then computes the paper results the workload
// does not own once, untimed, so every run reports and checks every
// end-to-end metric.
//
// Usage: fcbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                       --out FILE [--spans FILE] [--tiny]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hpp"
#include "attacks/attacks.hpp"
#include "core/engine.hpp"
#include "fleet/fleet.hpp"
#include "harness/harness.hpp"
#include "ubench_models.hpp"

namespace {

using namespace fc;

// ---------------------------------------------------------------------------
// Clocks, seeded inputs, digests.
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kEpoch = SteadyClock::now();

double now_s() {
  return std::chrono::duration<double>(SteadyClock::now() - kEpoch).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time, not wall: with paravirtual steal accounting the kernel leaves
/// out the time the host kept the vCPU descheduled.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  Rng(u64 seed, u64 stream) : state_(seed * 0x9E3779B97F4A7C15ull ^ stream) {}
  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  u32 below(u32 n) { return static_cast<u32>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(static_cast<u32>(i))]);
  }

 private:
  u64 state_;
};

/// FNV-1a over 64-bit words: the simulated-state digest of one round.
class Digest {
 public:
  void add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(const std::string& s) {
    for (char c : s) add(static_cast<u64>(static_cast<unsigned char>(c)));
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h_);
    return buf;
  }

 private:
  u64 h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent; one run id. Kept in memory while the
// run is traced, written out at the end. Untraced runs record nothing.
// ---------------------------------------------------------------------------

struct SpanRec {
  u32 id = 0;
  u32 parent = 0;  // 0 = root
  std::string name;
  double start = 0;
  double end = 0;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  u32 next_id() { return next_id_.fetch_add(1) + 1; }
  void push(SpanRec rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
  }
  std::vector<SpanRec> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<u32> next_id_{0};
  std::mutex mutex_;  // guards spans_
  std::vector<SpanRec> spans_;
};

SpanLog g_spans;
thread_local u32 t_current_span = 0;

/// RAII span. `parent` overrides the thread's current span (for work handed
/// to fleet worker threads).
class Span {
 public:
  explicit Span(const char* name, u32 parent = ~0u) {
    if (!g_spans.enabled()) return;
    rec_.id = g_spans.next_id();
    rec_.parent = parent == ~0u ? t_current_span : parent;
    rec_.name = name;
    saved_ = t_current_span;
    t_current_span = rec_.id;
    rec_.start = now_s();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end = now_s();
    t_current_span = saved_;
    g_spans.push(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  u32 id() const { return rec_.id; }

 private:
  SpanRec rec_;
  u32 saved_ = 0;
};

// ---------------------------------------------------------------------------
// Counters read from the public Stats accessors of every layer.
// ---------------------------------------------------------------------------

/// Name-keyed (sorted, so digests and JSON are order-stable) counters.
/// Keys ending in "_peak" merge by max, all others by sum. Every counter
/// feeds the simulated-state digest; the per-layer ratios use a subset.
struct Counters {
  std::map<std::string, u64> v;
  obs::Histogram switch_cost;

  void add(const std::string& k, u64 x) { v[k] += x; }
  u64 get(const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0 : it->second;
  }
  void peak(const std::string& k, u64 x) { v[k] = std::max(v[k], x); }
  void merge(const Counters& o) {
    for (const auto& [k, x] : o.v) {
      if (k.size() > 5 && k.compare(k.size() - 5, 5, "_peak") == 0)
        peak(k, x);
      else
        add(k, x);
    }
    switch_cost.merge(o.switch_cost);
  }
  void digest_into(Digest& d) const {
    for (const auto& [k, x] : v) {
      d.add(k);
      d.add(x);
    }
    d.add(switch_cost.count);
    d.add(switch_cost.sum);
  }
};

/// Add one VM's layer counters (read after its drive phase) to `c`.
void collect(harness::GuestSystem& sys, const core::FaceChangeEngine* engine,
             Counters& c) {
  cpu::Vcpu& vcpu = sys.vcpu();
  c.add("vms", 1);
  c.add("instructions", vcpu.instructions_retired());
  c.add("cycles", vcpu.cycles());

  const auto& b = vcpu.block_cache().stats();
  c.add("block.insn_hits", b.insn_hits);
  c.add("block.misses", b.block_misses);
  c.add("block.built", b.blocks_built);
  c.add("block.insns_decoded", b.insns_decoded);
  c.add("block.inval_code_load", b.inval_code_load);
  const auto& t = vcpu.trace_cache().stats();
  c.add("trace.built", t.built);
  c.add("trace.build_failures", t.build_failures);
  c.add("trace.dispatched", t.dispatched);
  c.add("trace.side_exits", t.side_exits);
  c.add("trace.insns", t.trace_insns);
  c.add("trace.inval_code_load", t.inval_code_load);

  const auto& m = vcpu.mmu().stats();
  c.add("mmu.tlb_hits", m.tlb_hits);
  c.add("mmu.tlb_misses", m.tlb_misses);
  const auto& e = sys.hv().machine().ept().stats();
  c.add("ept.pde_writes", e.pde_writes);
  c.add("ept.pte_writes", e.pte_writes);
  const auto& h = sys.hv().stats();
  c.add("hv.exits",
        h.invalid_opcode_exits + h.breakpoint_exits + h.halt_exits);

  const mem::HostMemory& host = sys.hv().machine().host();
  c.add("mem.private_frames", host.private_frame_count());
  c.add("mem.total_frames", host.frame_count());
  c.add("mem.cow_promotions", host.cow_promotions());
  c.add("mem.cow_suppressed_writes", host.cow_suppressed_writes());

  if (io::IoPlane* io = sys.os().io_plane()) {
    const auto& s = io->stats();
    c.add("io.nic_offered", s.nic_offered);
    c.add("io.nic_delivered", s.nic_delivered);
    c.add("io.blk_completions", s.blk_completions);
    c.add("io.irqs_raised", s.irqs_raised);
    c.add("io.coalesced", s.coalesced);
    c.add("io.backpressure", s.backpressure);
    c.add("io.dma_cycles", s.dma_cycles_charged);
    c.peak("io.backlog_peak", s.backlog_peak);
  }
  c.add("os.syscalls", sys.os().counters().syscalls);
  c.add("os.context_switches", sys.os().counters().context_switches);
  c.peak("os.event_queue_depth_peak", sys.os().events().max_depth());

  if (engine != nullptr) {
    const auto& s = engine->stats();
    c.add("core.ctxsw_traps", s.context_switch_traps);
    c.add("core.same_view_skips", s.switches_skipped_same_view);
    c.add("core.view_switches", s.view_switches());
    c.add("core.switch_cycles", s.switch_cycles_charged);
    const auto& r = engine->recovery_stats();
    c.add("core.recoveries", r.recoveries);
    c.add("core.instant_recoveries", r.instant_recoveries);
    c.add("core.instant_off_hazard_set", r.instant_off_hazard_set);
    c.add("core.recovery_cycles",
          r.recoveries * vcpu.perf_model().cost_recovery_base);
    if (const obs::Histogram* hist =
            obs::metrics().find_histogram("engine.switch_cost_cycles"))
      c.switch_cost.merge(*hist);
  }
}

/// Count a guest fault into `c` ("faults"; any non-zero value fails the
/// run). Every run_for / run_until_exit / hv.run the driver makes goes
/// through here.
hv::RunOutcome note(Counters& c, hv::RunOutcome outcome) {
  c.add("faults", outcome == hv::RunOutcome::kGuestFault ? 1 : 0);
  return outcome;
}

/// One drive call (run_for / run_until_exit / hv.run), as a span. Counts
/// the instructions retired inside it and a guest fault; adds the calling
/// thread's CPU time to `*cpu_s` when given (kept out of Counters, which
/// must stay deterministic).
template <typename Fn>
hv::RunOutcome drive(harness::GuestSystem& sys, Counters& c, Fn&& fn,
                     double* cpu_s = nullptr) {
  Span span("vcpu.drive");
  const u64 insn0 = sys.vcpu().instructions_retired();
  const double t0 = thread_cpu_s();
  const hv::RunOutcome outcome = fn();
  if (cpu_s != nullptr) *cpu_s += thread_cpu_s() - t0;
  c.add("drive.insns", sys.vcpu().instructions_retired() - insn0);
  return note(c, outcome);
}

// ---------------------------------------------------------------------------
// Sizes and seeded inputs.
// ---------------------------------------------------------------------------

struct Sizes {
  u32 churn_vms = 160;
  u32 churn_iter_lo = 2, churn_iter_hi = 6;
  Cycles ub_warmup = 3'000'000;  // Fig. 6 methodology (bench/ubench_models)
  Cycles ub_measure = 20'000'000;
  u32 cross_vms = 96;
  u32 cross_iters = 4;
  u32 http_vms = 8;
  u32 http_requests = 40;
  std::vector<double> http_rates = {20, 50, 65, 95};
  double http_ref_rate = 50;      // p50/p99 reported here
  double http_p99_limit_ms = 30;  // knee and failure limit
  Cycles udp_window = 40'000'000;
  double udp_first_rate = 8'000;
  double udp_max_rate = 1'024'000;
  u32 probe_vms = 8;              // traced-only layer probes
  u32 probe_switch_rounds = 4;

  static Sizes tiny() {
    Sizes s;
    s.churn_vms = 12;
    s.churn_iter_lo = s.churn_iter_hi = 1;
    s.ub_warmup = 1'000'000;
    s.ub_measure = 4'000'000;
    s.cross_vms = 12;
    s.cross_iters = 1;
    s.http_vms = 2;
    s.http_requests = 12;
    s.http_rates = {20, 50, 95};
    s.udp_window = 4'000'000;
    s.udp_first_rate = 32'000;
    s.probe_vms = 2;
    s.probe_switch_rounds = 1;
    return s;
  }
};

constexpr Cycles kFleetBudget = 300'000'000;
constexpr Cycles kHttpCompute = 1'480'000;  // per request (Fig. 7 server)
constexpr Cycles kUdpComputeUnit = 20'000;
constexpr u16 kUdpPort = 9000;
constexpr u32 kProfileIterations = 30;
constexpr std::size_t kSetupSamples = 7;  // set-ups per untraced run

/// One fleet VM running a Table I app under some app's view.
struct AppVm {
  std::string app;
  std::string view;
  u32 iterations = 0;
};

/// Everything the seed decides. The simulator only ever sees these values.
struct Inputs {
  std::vector<AppVm> churn, cross;          // per VM
  std::vector<double> http_phase;           // per VM, fraction of gap
  std::vector<std::vector<u32>> http_len;   // per VM, per request
  double udp_phase = 0;                     // fraction of gap

  Inputs(u64 seed, const Sizes& s) {
    const std::vector<std::string>& names = apps::all_app_names();
    Rng rng(seed, 1);
    std::vector<std::string> order = names;
    rng.shuffle(order);
    for (u32 vm = 0; vm < s.churn_vms; ++vm) {
      const std::string& app = order[vm % order.size()];
      churn.push_back({app, app,
                       s.churn_iter_lo +
                           rng.below(s.churn_iter_hi - s.churn_iter_lo + 1)});
    }
    // Cross-view pairing: each block of 12 VMs runs a fresh seeded cycle
    // over the apps, every app under the view of the next app in its cycle
    // (many pairings per run, so residency does not hinge on one draw).
    rng = Rng(seed, 2);
    std::vector<std::string> cycle = names;
    for (u32 vm = 0; vm < s.cross_vms; ++vm) {
      const std::size_t k = vm % cycle.size();
      if (k == 0) rng.shuffle(cycle);
      cross.push_back({cycle[k], cycle[(k + 1) % cycle.size()], s.cross_iters});
    }
    rng = Rng(seed, 3);
    for (u32 vm = 0; vm < s.http_vms; ++vm) {
      http_phase.push_back(rng.unit());
      std::vector<u32> lens;
      for (u32 i = 0; i < s.http_requests; ++i)
        lens.push_back(256 + rng.below(769));  // 256..1024 bytes
      http_len.push_back(std::move(lens));
    }
    udp_phase = Rng(seed, 4).unit();
  }
};

u32 view_id_of(const core::SharedImage& image, const std::string& app) {
  for (u32 i = 0; i < image.views.size(); ++i)
    if (image.views[i].config.app_name == app) return i + 1;
  FC_CHECK(false, << "no view for " << app);
  return 0;
}

u32 jobs_for_host() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Run fn(i) for i in [0, n) on up to jobs_for_host() threads. Spans
/// opened by fn nest under the caller's current span.
template <typename Fn>
void parallel_for(u32 n, Fn&& fn) {
  const u32 parent = t_current_span;
  std::atomic<u32> next{0};
  auto worker = [&] {
    t_current_span = parent;
    for (u32 i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  for (u32 t = 1; t < std::min(jobs_for_host(), n); ++t)
    pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();
}

// ---------------------------------------------------------------------------
// Round parts. Each returns its deterministic simulated state (counters +
// results + digest) plus its host timing.
// ---------------------------------------------------------------------------

struct Part {
  std::string name;
  Counters counters;            // summed over every VM the part ran
  std::map<std::string, double> results;  // simulated results
  u64 attempted = 0;
  u64 failed = 0;
  Digest digest;
  // Host side (not in the digest).
  double timed_cpu_s = 0;  // CPU time guest_minsn_per_s divides by
  u64 timed_insns = 0;
  double fleet_wall_s = 0;
  double fleet_cpu_s = 0;
  u64 fleet_steals = 0;
};

struct FleetVmSlot {
  Counters counters;
  bool out_of_budget = false;
};

/// The fleet.run span the workload hooks (on worker threads) nest under.
std::atomic<u32> g_fleet_span{0};

/// Run a hook-driven fleet and fold the per-VM slots into `part`. Returns
/// the number of VMs that faulted or ran out of budget.
u64 run_fleet(const core::SharedImage& image, fleet::FleetOptions options,
              std::vector<FleetVmSlot>& slots, Part& part) {
  options.jobs = jobs_for_host();
  fleet::FleetReport report;
  const double cpu0 = process_cpu_s();
  {
    Span span("fleet.run");
    g_fleet_span = span.id();
    fleet::FleetRunner runner(image, std::move(options));
    report = runner.run();
  }
  const double cpu = process_cpu_s() - cpu0;
  part.fleet_cpu_s += cpu;
  part.fleet_wall_s += report.wall_seconds;
  part.fleet_steals += report.steals;
  part.timed_cpu_s += cpu;
  part.timed_insns += report.total_instructions();
  part.counters.add("mem.store_pages", report.shared_store_pages);
  u64 failed = 0;
  for (std::size_t vm = 0; vm < slots.size(); ++vm) {
    // VmResult::fault stays false under a workload hook; the hook's drive
    // calls count faults into the slot instead.
    const fleet::VmResult& r = report.vms[vm];
    part.counters.merge(slots[vm].counters);
    part.counters.add("fleet.out_of_budget", slots[vm].out_of_budget ? 1 : 0);
    if (slots[vm].counters.get("faults") != 0 || slots[vm].out_of_budget)
      ++failed;
    part.digest.add(r.instructions);
    part.digest.add(r.cycles);
    part.digest.add(r.recoveries);
    part.digest.add(r.view_switches);
    part.digest.add(r.private_frames);
  }
  return failed;
}

/// A fleet of short-lived COW VMs, VM i running vms[i].app under
/// vms[i].view's view: fleet_churn (own views) and the fleet half of
/// attack_recovery (neighbours' views).
Part app_fleet_part(const char* name, const core::SharedImage& image,
                    const std::vector<AppVm>& vms) {
  Part part;
  part.name = name;
  std::vector<FleetVmSlot> slots(vms.size());
  fleet::FleetOptions options;
  options.vms = static_cast<u32>(vms.size());
  options.workload_app = image.views[0].config.app_name;
  options.workload = [&](harness::GuestSystem& sys,
                         core::FaceChangeEngine& engine, u32 vm) {
    Span span("fleet.vm", g_fleet_span);
    const AppVm& in = vms[vm];
    engine.bind(in.app, view_id_of(image, in.view));
    apps::AppScenario scenario = apps::make_app(in.app, in.iterations);
    const u32 pid = sys.os().spawn(in.app, scenario.model);
    scenario.install_environment(sys.os());
    FleetVmSlot& slot = slots[vm];
    drive(sys, slot.counters,
          [&] { return sys.run_until_exit(pid, kFleetBudget); });
    slot.out_of_budget = sys.os().task_alive(pid);
    collect(sys, &engine, slot.counters);
  };
  part.attempted = vms.size();
  part.failed = run_fleet(image, std::move(options), slots, part);
  part.counters.digest_into(part.digest);
  return part;
}

/// attack_recovery, attack half: the 16 Table II attacks under per-app
/// views, spread over the worker threads. Detection is the simulated
/// result; host time per attack is a span.
Part table2_part() {
  Part part;
  part.name = "table2";
  const std::vector<std::unique_ptr<attacks::Attack>> all =
      attacks::make_all_attacks();
  std::vector<harness::AttackRunResult> runs(all.size());
  parallel_for(static_cast<u32>(all.size()), [&](u32 i) {
    Span span("harness.run_attack");
    runs[i] = harness::run_attack(*all[i]);
  });
  u64 detected = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const harness::AttackRunResult& r = runs[i];
    detected += r.detected ? 1 : 0;
    part.digest.add(all[i]->name());
    part.digest.add(r.detected ? 1 : 0);
    part.digest.add(r.recovery_events);
    for (const std::string& sym : r.recovered_symbols) part.digest.add(sym);
  }
  part.attempted = all.size();
  part.failed = all.size() - detected;
  part.results["attacks_detected"] = static_cast<double>(detected);
  return part;
}

/// One Fig. 6 measurement: fresh system, optional FACE-CHANGE with the
/// first profiled view loaded (gzip excluded, footnote 5), untimed warm-up,
/// timed measure window.
struct SubtestRun {
  double ops_per_second = 0;
  u64 ops = 0;
  double timed_cpu_s = 0;
  u64 timed_insns = 0;
  Counters counters;
};

SubtestRun measure_subtest(const ubench::Subtest& subtest, bool face_change,
                           const Sizes& s) {
  SubtestRun run;
  obs::metrics().reset();  // per-measurement switch-cost histogram
  std::unique_ptr<harness::GuestSystem> sys;
  {
    Span span("mem.guest_boot");
    sys = std::make_unique<harness::GuestSystem>();
  }
  std::unique_ptr<core::FaceChangeEngine> engine;
  if (face_change) {
    Span span("core.enable_load_view");
    engine = std::make_unique<core::FaceChangeEngine>(sys->hv(),
                                                      sys->os().kernel());
    engine->enable();
    for (const core::KernelViewConfig& cfg : harness::profile_all_apps()) {
      if (cfg.app_name == "gzip") continue;
      engine->bind(cfg.app_name, engine->load_view(cfg));
      break;  // one view loaded
    }
  }
  run.counters.add("mem.store_pages",
                   harness::boot_image_for(os::OsConfig{}).store.page_count());
  if (subtest.needs_binaries) apps::register_utility_binaries(sys->os());
  sys->os().spawn("ubench", subtest.factory());
  note(run.counters, sys->run_for(s.ub_warmup));  // warm-up: not timed

  const u64 ops0 = sys->os().counters().responses_completed;
  const Cycles c0 = sys->vcpu().cycles();
  drive(*sys, run.counters, [&] { return sys->run_for(s.ub_measure); },
        &run.timed_cpu_s);
  run.ops = sys->os().counters().responses_completed - ops0;
  const double seconds =
      static_cast<double>(sys->vcpu().cycles() - c0) /
      static_cast<double>(sys->vcpu().perf_model().cycles_per_second);
  run.ops_per_second = static_cast<double>(run.ops) / seconds;
  run.timed_insns = run.counters.v["drive.insns"];
  collect(*sys, engine.get(), run.counters);
  return run;
}

/// unixbench_single: the 9-subtest suite, baseline and FACE-CHANGE arms.
/// Each measurement is one single-threaded VM; the 18 of them are spread
/// over the worker threads, so host throughput is per VM thread averaged
/// over every core (one thread alone rides one core's noise).
Part fig6_part(const Sizes& s) {
  Part part;
  part.name = "fig6";
  const std::vector<ubench::Subtest> suite = ubench::unixbench_suite();
  std::vector<SubtestRun> runs(suite.size() * 2);
  parallel_for(static_cast<u32>(runs.size()), [&](u32 i) {
    runs[i] = measure_subtest(suite[i / 2], i % 2 == 1, s);
  });
  double norm_sum = 0;
  for (std::size_t k = 0; k < suite.size(); ++k) {
    const SubtestRun& base = runs[2 * k];
    const SubtestRun& fc_run = runs[2 * k + 1];
    for (const SubtestRun* r : {&base, &fc_run}) {
      part.counters.merge(r->counters);
      part.timed_cpu_s += r->timed_cpu_s;
      part.timed_insns += r->timed_insns;
      part.attempted += 1;
      part.failed += r->ops == 0 || r->counters.get("faults") != 0 ? 1 : 0;
      part.digest.add(r->ops);
    }
    const double norm = base.ops_per_second > 0
                            ? fc_run.ops_per_second / base.ops_per_second
                            : 0;
    norm_sum += norm;
    if (suite[k].name == "Pipe-based Context Switching")
      part.results["fc_ctxsw_ratio"] = norm;
  }
  part.results["fc_overhead_pct"] =
      (1.0 - norm_sum / static_cast<double>(suite.size())) * 100.0;
  part.counters.digest_into(part.digest);
  return part;
}

/// Open-loop HTTP drive of one VM against the stock Fig. 7 server: seeded
/// arrival phase and request lengths (carried into the guest network path
/// by schedule_connection), latency against each request's scheduled
/// arrival.
struct HttpVmResult {
  u64 served = 0;
  double achieved_rps = 0;
  std::vector<Cycles> latencies;
};

void http_drive(harness::GuestSystem& sys, double rate, double phase,
                const std::vector<u32>& lens, Counters& c,
                HttpVmResult& slot) {
  sys.os().spawn("apache", ubench::make_http_server(kHttpCompute));
  drive(sys, c, [&] { return sys.run_for(2'000'000); });
  std::vector<Cycles> completions;
  sys.os().set_response_log(&completions);
  const u64 cps = sys.vcpu().perf_model().cycles_per_second;
  const Cycles gap = static_cast<Cycles>(static_cast<double>(cps) / rate);
  const Cycles start = sys.vcpu().cycles() + 1'000'000 +
                       static_cast<Cycles>(phase * static_cast<double>(gap));
  const u32 n = static_cast<u32>(lens.size());
  {
    Span span("os.schedule_connection");
    for (u32 i = 0; i < n; ++i)
      sys.os().schedule_connection(start + i * gap, 80, lens[i]);
  }
  const u64 ops0 = sys.os().counters().responses_completed;
  const Cycles c0 = sys.vcpu().cycles();
  const Cycles deadline = start + static_cast<Cycles>(n) * gap + 4ull * cps;
  drive(sys, c, [&] {
    return sys.hv().run([&] {
      return sys.os().counters().responses_completed - ops0 >= n ||
             sys.vcpu().cycles() >= deadline;
    });
  });
  sys.os().set_response_log(nullptr);
  slot.served = sys.os().counters().responses_completed - ops0;
  const double seconds = static_cast<double>(sys.vcpu().cycles() - c0) /
                         static_cast<double>(cps);
  slot.achieved_rps =
      seconds > 0 ? static_cast<double>(slot.served) / seconds : 0;
  for (std::size_t i = 0; i < completions.size(); ++i) {
    const Cycles arrival = start + static_cast<Cycles>(i) * gap;
    slot.latencies.push_back(
        completions[i] > arrival ? completions[i] - arrival : 0);
  }
}

/// Exact nearest-rank percentile over a sorted sample.
Cycles percentile(const std::vector<Cycles>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct HttpPoint {
  double rate = 0;
  u64 offered = 0, served = 0, over_limit = 0;
  double mean_achieved_rps = 0;
  double p50_ms = 0, p99_ms = 0;
};

HttpPoint http_point(const core::SharedImage& image, const Inputs& in,
                     const Sizes& s, double rate, bool face_change,
                     Part& part) {
  std::vector<FleetVmSlot> slots(s.http_vms);
  std::vector<HttpVmResult> http(s.http_vms);
  fleet::FleetOptions options;
  options.vms = s.http_vms;
  options.workload_app = "apache";
  options.workload = [&](harness::GuestSystem& sys,
                         core::FaceChangeEngine& engine, u32 vm) {
    Span span("fleet.vm", g_fleet_span);
    if (!face_change) engine.disable();
    http_drive(sys, rate, in.http_phase[vm], in.http_len[vm],
               slots[vm].counters, http[vm]);
    collect(sys, &engine, slots[vm].counters);
  };
  run_fleet(image, std::move(options), slots, part);

  HttpPoint point;
  point.rate = rate;
  std::vector<Cycles> merged;
  double achieved = 0;
  const double limit_cycles = s.http_p99_limit_ms * 100'000.0;  // 100 MHz
  for (const HttpVmResult& r : http) {
    point.served += r.served;
    achieved += r.achieved_rps;
    for (Cycles lat : r.latencies) {
      merged.push_back(lat);
      if (static_cast<double>(lat) > limit_cycles) ++point.over_limit;
      part.digest.add(lat);
    }
  }
  point.offered = static_cast<u64>(s.http_vms) * s.http_requests;
  point.mean_achieved_rps = achieved / static_cast<double>(s.http_vms);
  std::sort(merged.begin(), merged.end());
  point.p50_ms = static_cast<double>(percentile(merged, 0.50)) / 100'000.0;
  point.p99_ms = static_cast<double>(percentile(merged, 0.99)) / 100'000.0;
  return point;
}

/// http_open_loop, HTTP half: the per-VM rate grid with FACE-CHANGE on, and
/// one FACE-CHANGE-off arm at the top rate (Fig. 7's throughput ratio).
Part fig7_part(const core::SharedImage& image, const Inputs& in,
               const Sizes& s) {
  Part part;
  part.name = "fig7";
  double knee = 0;
  bool knee_open = true;
  HttpPoint top;
  for (double rate : s.http_rates) {
    HttpPoint p = http_point(image, in, s, rate, true, part);
    const bool meets = p.served == p.offered && p.p99_ms <= s.http_p99_limit_ms;
    if (meets && knee_open) knee = rate;
    knee_open = knee_open && meets;
    if (rate <= s.http_ref_rate) {
      // Requests at or below the reference rate are the served load; above
      // it the grid only probes for the knee.
      part.attempted += p.offered;
      part.failed += (p.offered - p.served) + p.over_limit;
      part.results["http_unserved_at_or_below_ref"] +=
          static_cast<double>(p.offered - p.served);
    }
    if (rate == s.http_ref_rate) {
      part.results["http_p50_ms"] = p.p50_ms;
      part.results["http_p99_ms"] = p.p99_ms;
    }
    top = p;
  }
  HttpPoint off = http_point(image, in, s, s.http_rates.back(), false, part);
  part.results["http_knee_rps"] = knee;
  part.results["http_fc_ratio"] =
      off.mean_achieved_rps > 0 ? top.mean_achieved_rps / off.mean_achieved_rps
                                : 0;
  part.counters.digest_into(part.digest);
  return part;
}

os::OsConfig batched_io_config() {
  os::OsConfig cfg;
  cfg.io.coalesce_count = 32;
  cfg.io.coalesce_cycles = 100'000;
  cfg.io.meter_dma = true;
  return cfg;
}

/// One single-VM UDP flood window on the batched virtio tuning; returns the
/// compute units that survived.
u64 udp_window(double rate, double phase, const Sizes& s, Part& part) {
  const double t0 = thread_cpu_s();
  std::unique_ptr<harness::GuestSystem> sys;
  {
    Span span("mem.guest_boot");
    sys = std::make_unique<harness::GuestSystem>(batched_io_config());
  }
  Counters c;
  c.add("mem.store_pages",
        harness::boot_image_for(batched_io_config()).store.page_count());
  sys->os().spawn("udprecv",
                  ubench::make_udp_compute(kUdpPort, kUdpComputeUnit));
  drive(*sys, c, [&] { return sys->run_for(1'000'000); });
  if (rate > 0) {
    const u64 cps = sys->vcpu().perf_model().cycles_per_second;
    const Cycles gap = static_cast<Cycles>(static_cast<double>(cps) / rate);
    const u32 offered = static_cast<u32>(s.udp_window / gap);
    sys->os().schedule_datagram_stream(
        sys->vcpu().cycles() + 1 +
            static_cast<Cycles>(phase * static_cast<double>(gap)),
        gap, offered, kUdpPort, 64);
  }
  const u64 ops0 = sys->os().counters().responses_completed;
  drive(*sys, c, [&] { return sys->run_for(s.udp_window); });
  const u64 ops = sys->os().counters().responses_completed - ops0;
  collect(*sys, nullptr, c);
  part.counters.merge(c);
  part.timed_cpu_s += thread_cpu_s() - t0;
  part.timed_insns += sys->vcpu().instructions_retired();
  part.digest.add(ops);
  return ops;
}

/// http_open_loop, UDP half: sweep the flood rate (doubling) until compute
/// retention drops below 0.5. The knee is the 0.5 crossing, interpolated in
/// log-rate between the last point at or above 0.5 and the first below it,
/// so it moves smoothly instead of jumping a grid step. If the first point
/// is already below 0.5 the crossing is interpolated linearly from the
/// unloaded window (retention 1 at rate 0). If no point drops below 0.5 the
/// knee is the top rate and the result is flagged as saturated.
Part udp_part(const Inputs& in, const Sizes& s) {
  Part part;
  part.name = "udp";
  const u64 unloaded = udp_window(0, 0, s, part);
  double prev_rate = 0, prev_ret = 1.0, knee = 0;
  bool crossed = false;
  for (double rate = s.udp_first_rate; rate <= s.udp_max_rate; rate *= 2) {
    const u64 ops = udp_window(rate, in.udp_phase, s, part);
    const double ret = unloaded > 0 ? static_cast<double>(ops) /
                                          static_cast<double>(unloaded)
                                    : 0;
    if (ret < 0.5) {
      const double f = (prev_ret - 0.5) / (prev_ret - ret);
      knee = prev_rate > 0 ? prev_rate * std::pow(rate / prev_rate, f)
                           : rate * f;
      crossed = true;
      break;
    }
    prev_rate = rate;
    prev_ret = ret;
  }
  if (!crossed) knee = prev_rate;
  part.results["udp_knee_pps"] = knee;
  part.results["udp_knee_saturated"] = crossed ? 0 : 1;
  part.counters.digest_into(part.digest);
  return part;
}

// ---------------------------------------------------------------------------
// Setup, traced-only layer probes.
// ---------------------------------------------------------------------------

struct Setup {
  double total_s = 0, profile_s = 0, image_s = 0;
  std::unique_ptr<core::SharedImage> image;  // fleet workloads
};

/// Runs fn inside a span; returns the process CPU time it took.
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  Span span(span_name);
  const double t0 = process_cpu_s();
  fn();
  return process_cpu_s() - t0;
}

const std::vector<std::string> kWorkloads = {
    "fleet_churn", "unixbench_single", "attack_recovery", "http_open_loop"};

/// Build the memoized boot images every set-up uses: the runtime config and
/// the profiling config (clocksource 0, see harness::profile_app). The memo
/// cannot be cleared, so this runs once per process, before the first
/// set-up; every set-up after it then does the same work.
double build_boot_images() {
  return timed("harness.boot_image_for", [] {
    harness::boot_image_for(os::OsConfig{});
    os::OsConfig profiling;
    profiling.clocksource = 0;
    harness::boot_image_for(profiling);
  });
}

/// The workload's set-up after the boot images: profiling and the fleet
/// image. The first call fills the profile memo the workloads read; a
/// `repeat` redoes the same profiling without it, so set-up can be sampled
/// several times in one run. build_shared_image reads the memo, which the
/// first call has filled, so it does the same work every time.
Setup run_setup(const std::string& workload, bool repeat = false) {
  Setup st;
  const double t0 = process_cpu_s();
  if (workload == "http_open_loop") {
    // Profiles apache and gzip itself, outside the memo.
    harness::SharedImageOptions opt;
    opt.apps = {"apache", "gzip"};
    opt.profile_iterations = kProfileIterations;
    st.image_s = timed("harness.build_shared_image", [&] {
      st.image = harness::build_shared_image(opt);
    });
  } else {
    st.profile_s = timed("harness.profile_all_apps", [&] {
      if (!repeat) {
        harness::profile_all_apps(kProfileIterations);
        return;
      }
      for (const std::string& app : apps::all_app_names())
        harness::profile_app(app, kProfileIterations);
    });
    if (workload != "unixbench_single") {
      st.image_s = timed("harness.build_shared_image", [&] {
        harness::SharedImageOptions opt;
        opt.profile_iterations = kProfileIterations;
        st.image = harness::build_shared_image(opt);
      });
    }
  }
  st.total_s = process_cpu_s() - t0;
  return st;
}

/// Traced-only probes of per-VM fixed costs on a fleet image: COW boot,
/// engine enable + view adoption, and a force_activate loop over every
/// ordered view pair.
void layer_probes(const core::SharedImage& image, const Sizes& s) {
  for (u32 i = 0; i < s.probe_vms; ++i) {
    obs::metrics().reset();
    std::unique_ptr<harness::GuestSystem> sys;
    {
      Span span("mem.guest_boot");
      sys = std::make_unique<harness::GuestSystem>(os::OsConfig{}, image);
    }
    core::FaceChangeEngine engine(sys->hv(), sys->os().kernel());
    {
      Span span("core.adopt_views");
      engine.enable();
      engine.adopt_shared_views(image);
    }
    if (i != 0) continue;
    const u32 n = static_cast<u32>(engine.view_count());
    for (u32 r = 0; r < s.probe_switch_rounds; ++r) {
      for (u32 from = 1; from <= n; ++from) {
        for (u32 to = 1; to <= n; ++to) {
          if (from == to) continue;
          engine.force_activate(from);
          Span span("core.force_activate");
          engine.force_activate(to);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string jnum(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string part_json(const Part& p) {
  std::ostringstream o;
  o << "{\"digest\": " << jstr(p.digest.hex()) << ", \"attempted\": "
    << p.attempted << ", \"failed\": " << p.failed << ", \"results\": {";
  const char* sep = "";
  for (const auto& [k, x] : p.results) {
    o << sep << jstr(k) << ": " << jnum(x);
    sep = ", ";
  }
  o << "}, \"counters\": {";
  sep = "";
  for (const auto& [k, x] : p.counters.v) {
    o << sep << jstr(k) << ": " << x;
    sep = ", ";
  }
  o << "}, \"switch_cost_p50\": " << p.counters.switch_cost.p50()
    << ", \"switch_cost_p99\": " << p.counters.switch_cost.p99()
    << ", \"switch_cost_count\": " << p.counters.switch_cost.count << "}";
  return o.str();
}

/// One round's host timing, guest faults, and each part's digest and
/// operation counts.
std::string round_json(const std::vector<Part>& parts, bool traced,
                       double wall, double cpu) {
  std::ostringstream o;
  double timed_cpu_s = 0;
  u64 timed_insns = 0, faults = 0;
  o << "{\"traced\": " << (traced ? "true" : "false")
    << ", \"wall_s\": " << jnum(wall) << ", \"cpu_s\": " << jnum(cpu)
    << ", \"parts\": {";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Part& p = parts[i];
    timed_cpu_s += p.timed_cpu_s;
    timed_insns += p.timed_insns;
    faults += p.counters.get("faults");
    o << (i == 0 ? "" : ", ") << jstr(p.name) << ": {\"digest\": "
      << jstr(p.digest.hex()) << ", \"attempted\": " << p.attempted
      << ", \"failed\": " << p.failed
      << ", \"fleet_wall_s\": " << jnum(p.fleet_wall_s)
      << ", \"fleet_cpu_s\": " << jnum(p.fleet_cpu_s)
      << ", \"fleet_steals\": " << p.fleet_steals << "}";
  }
  o << "}, \"timed_cpu_s\": " << jnum(timed_cpu_s)
    << ", \"timed_insns\": " << timed_insns << ", \"faults\": " << faults
    << "}";
  return o.str();
}

std::string fingerprint_json(u64 seed) {
  std::ostringstream o;
#if defined(FC_OBS_DISABLED)
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  o << "{\"build_type\": " << jstr(FCBENCH_BUILD_TYPE)
    << ", \"compiler\": " << jstr(compiler)
    << ", \"fc_obs_disabled\": " << (obs_disabled ? "true" : "false")
    << ", \"sanitize\": " << jstr(FCBENCH_SANITIZE)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"jobs\": " << jobs_for_host() << ", \"seed\": " << seed << "}";
  return o.str();
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val());
    else if (k == "--trace") a.trace = std::strcmp(val(), "1") == 0;
    else if (k == "--out") a.out = val();
    else if (k == "--spans") a.spans = val();
    else if (k == "--tiny") a.tiny = true;
    else return false;
  }
  return std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) !=
             kWorkloads.end() &&
         !a.out.empty();
}

/// The parts one round of `workload` runs (the parts it owns).
std::vector<Part> run_round(const std::string& workload, const Setup& st,
                            const Inputs& in, const Sizes& s) {
  std::vector<Part> parts;
  if (workload == "fleet_churn") {
    parts.push_back(app_fleet_part("churn", *st.image, in.churn));
  } else if (workload == "unixbench_single") {
    parts.push_back(fig6_part(s));
  } else if (workload == "attack_recovery") {
    parts.push_back(table2_part());
    parts.push_back(app_fleet_part("crossview", *st.image, in.cross));
  } else {
    parts.push_back(fig7_part(*st.image, in, s));
    parts.push_back(udp_part(in, s));
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: fcbench_driver --workload "
                 "fleet_churn|unixbench_single|attack_recovery|http_open_loop"
                 " --seed N --seconds S --trace 0|1 --out FILE [--spans FILE]"
                 " [--tiny]\n");
    return 2;
  }
  const Sizes sizes = args.tiny ? Sizes::tiny() : Sizes{};
  const Inputs inputs(args.seed, sizes);
  g_spans.set_enabled(args.trace);

  const double boot_image_s = build_boot_images();
  Setup setup = run_setup(args.workload);
  std::ostringstream out;
  out << "{\"workload\": " << jstr(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"tiny\": " << (args.tiny ? "true" : "false")
      << ", \"fingerprint\": " << fingerprint_json(args.seed)
      << ", \"setup\": {\"total_s\": " << jnum(setup.total_s)
      << ", \"profile_s\": " << jnum(setup.profile_s)
      << ", \"boot_image_s\": " << jnum(boot_image_s)
      << ", \"image_s\": " << jnum(setup.image_s) << "}";

  // Timed phase: rounds of identical inputs until --seconds have passed.
  // A traced run alternates untraced and traced rounds so the two can be
  // compared (tracing overhead); spans come from traced rounds only. An
  // untraced run also repeats its set-up (after the boot images) between
  // rounds, spread over the run, so the set-up's median is taken over the
  // machine's states during the run.
  const u32 min_rounds = args.tiny ? 2 : (args.trace ? 4 : 3);
  const double t_start = now_s();
  std::vector<double> setup_samples = {setup.total_s};
  std::vector<std::vector<Part>> rounds;
  out << ", \"rounds\": [";
  for (u32 r = 0; r < min_rounds || now_s() - t_start < args.seconds; ++r) {
    const double due = args.seconds *
                       static_cast<double>(setup_samples.size()) /
                       kSetupSamples;
    if (!args.trace && setup_samples.size() < kSetupSamples &&
        now_s() - t_start >= due)
      setup_samples.push_back(run_setup(args.workload, true).total_s);

    const bool traced = args.trace && r % 2 == 1;
    g_spans.set_enabled(traced);
    const double cpu0 = process_cpu_s();
    const double w0 = now_s();
    std::vector<Part> parts;
    {
      Span span("bench.round");
      parts = run_round(args.workload, setup, inputs, sizes);
    }
    const double wall = now_s() - w0;
    const double cpu = process_cpu_s() - cpu0;
    if (traced && setup.image) layer_probes(*setup.image, sizes);
    g_spans.set_enabled(false);
    out << (r == 0 ? "" : ", ") << round_json(parts, traced, wall, cpu);
    rounds.push_back(std::move(parts));
  }
  out << "], \"setup_samples\": [";
  for (std::size_t i = 0; i < setup_samples.size(); ++i)
    out << (i == 0 ? "" : ", ") << jnum(setup_samples[i]);
  out << "]";

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out << ", \"peak_rss_kib\": " << ru.ru_maxrss;

  // The first round's full simulated state (every round's digest matches
  // it or run.py fails the run).
  const char* sep = "";
  auto emit = [&](const Part& p) {
    out << sep << jstr(p.name) << ": " << part_json(p);
    sep = ", ";
  };
  out << ", \"parts\": {";
  for (const Part& p : rounds.front()) emit(p);
  out << "}";

  // Paper pass: the paper results this workload does not own, once,
  // untimed, on up to jobs_for_host() threads. Every run reports every
  // end-to-end metric, so a workload computes the others' paper results
  // too; they are deterministic for a seed and checked like its own parts.
  out << ", \"paper_parts\": {";
  sep = "";
  if (args.workload != "unixbench_single")
    emit(fig6_part(sizes));
  if (args.workload != "attack_recovery") emit(table2_part());
  if (args.workload != "http_open_loop") {
    Setup http = run_setup("http_open_loop");
    emit(fig7_part(*http.image, inputs, sizes));
    emit(udp_part(inputs, sizes));
  }
  out << "}";
  out << "}\n";

  std::ofstream(args.out) << out.str();
  if (!args.spans.empty()) {
    std::ofstream so(args.spans);
    so << "{\"run_id\": \"" << args.workload << "-" << args.seed << "-"
       << std::hex << std::chrono::system_clock::now().time_since_epoch().count()
       << std::dec << "\", \"spans\": [";
    const std::vector<SpanRec> spans = g_spans.take();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRec& sp = spans[i];
      so << (i == 0 ? "" : ", ") << "{\"id\": " << sp.id
         << ", \"parent\": " << sp.parent << ", \"name\": " << jstr(sp.name)
         << ", \"start\": " << jnum(sp.start) << ", \"end\": " << jnum(sp.end)
         << "}";
    }
    so << "]}\n";
  }
  return 0;
}
