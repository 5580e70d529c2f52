"""fcbench self-tests.

    python3 -m unittest discover -s fcbench/tests -v

The comparison and derivation tests are pure Python; TinyRunTest builds the
driver (first time: about a minute) and runs every workload at small inputs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import fcmetrics  # noqa: E402

SPEC = fcmetrics.load_spec(os.path.join(ROOT, "BENCHMARK.json"))


def runs_with(values, scale=1.0, n=10):
    """n identical runs of one metric set, every metric worsened by
    `scale` (a 10% worsening multiplies lower-better metrics by 1.1 and
    higher-better ones by 0.9)."""
    runs = []
    for _ in range(n):
        run = {}
        for m in SPEC["end_to_end"]:
            v = values[m["name"]]
            run[m["name"]] = (v * scale if m["better"] == "lower"
                              else v * (2.0 - scale))
        runs.append(run)
    return runs


BASE = {m["name"]: 10.0 + i for i, m in enumerate(SPEC["end_to_end"])}


class CompareTest(unittest.TestCase):
    def test_identical_inputs_pass(self):
        rows = fcmetrics.compare(runs_with(BASE), runs_with(BASE), SPEC)
        self.assertEqual(len(rows), len(SPEC["end_to_end"]))
        self.assertFalse([r for r in rows if r[5]])

    def test_ten_percent_worsening_flagged(self):
        rows = fcmetrics.compare(runs_with(BASE), runs_with(BASE, 1.10), SPEC)
        flagged = {r[0] for r in rows if r[5]}
        expected = {m["name"] for m in SPEC["end_to_end"]
                    if m["bound"] < 0.10}
        self.assertTrue(expected, "no metric has a bound below 10%")
        self.assertEqual(flagged, expected)
        for name, _, _, w, _, _ in rows:
            self.assertAlmostEqual(w, 0.10, places=9, msg=name)

    def test_improvement_not_flagged(self):
        rows = fcmetrics.compare(runs_with(BASE), runs_with(BASE, 0.5), SPEC)
        self.assertFalse([r for r in rows if r[5]])

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(fcmetrics.spread([1, 2, 3, 4, 5]),
                               (4.5 - 1.5) / 3)
        self.assertEqual(fcmetrics.spread([7, 7, 7]), 0.0)


def fixed_doc():
    """A driver document with hand-picked counters."""
    part = {
        "digest": "d1", "attempted": 4, "failed": 0,
        "results": {},
        "switch_cost_p50": 1023, "switch_cost_p99": 2047,
        "switch_cost_count": 10,
        "counters": {
            "vms": 4, "instructions": 2_000_000, "cycles": 4_000_000,
            "drive.insns": 1_000_000, "block.insns_decoded": 20_000,
            "block.built": 400, "block.insn_hits": 500_000,
            "block.inval_code_load": 6, "trace.inval_code_load": 2,
            "trace.insns": 1_200_000, "trace.dispatched": 1000,
            "trace.side_exits": 250, "trace.build_failures": 3,
            "mmu.tlb_misses": 9_000, "ept.pde_writes": 300,
            "core.view_switches": 100, "hv.exits": 50,
            "core.ctxsw_traps": 40, "core.same_view_skips": 10,
            "core.recoveries": 8, "core.instant_recoveries": 2,
            "core.recovery_cycles": 72_000, "mem.private_frames": 40,
            "mem.store_pages": 1000, "mem.cow_promotions": 12,
            "io.irqs_raised": 30, "io.nic_delivered": 100,
            "io.blk_completions": 20, "io.coalesced": 90,
            "io.backpressure": 5, "io.backlog_peak": 7,
            "io.dma_cycles": 8_000, "os.event_queue_depth_peak": 9,
            "os.syscalls": 600,
        },
    }
    round_part = {"digest": "d1", "attempted": 4, "failed": 0,
                  "fleet_wall_s": 2.0, "fleet_cpu_s": 6.0, "fleet_steals": 3}
    return {
        "seed": 1, "tiny": False, "peak_rss_kib": 2048,
        "fingerprint": {"jobs": 4},
        "setup": {"total_s": 1.0, "profile_s": 0.5, "boot_image_s": 0.1,
                  "image_s": 0.3},
        "setup_samples": [1.0, 3.0, 2.0],
        "rounds": [
            {"traced": False, "wall_s": 2.0, "timed_cpu_s": 2.0,
             "timed_insns": 2_000_000, "faults": 0,
             "parts": {"churn": dict(round_part)}},
            {"traced": True, "wall_s": 2.2, "timed_cpu_s": 2.0,
             "timed_insns": 2_000_000, "faults": 0,
             "parts": {"churn": dict(round_part)}},
        ],
        "parts": {"churn": part},
        "paper_parts": {
            "fig6": {"digest": "a", "results": {"fc_overhead_pct": 6.8,
                                                "fc_ctxsw_ratio": 0.8},
                     "counters": {}},
            "table2": {"digest": "b", "results": {"attacks_detected": 16},
                       "counters": {}},
            "fig7": {"digest": "c", "results": {
                "http_p50_ms": 17.0, "http_p99_ms": 21.0,
                "http_knee_rps": 50, "http_fc_ratio": 0.98,
                "http_unserved_at_or_below_ref": 0}, "counters": {}},
            "udp": {"digest": "e", "results": {"udp_knee_pps": 1e5,
                                               "udp_knee_saturated": 0},
                    "counters": {}},
        },
    }


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start,
            "end": end}


class DeriveTest(unittest.TestCase):
    def test_per_layer_ratios(self):
        spans = [
            span(1, 0, "bench.round", 0.0, 2.0),
            span(2, 1, "fleet.run", 0.0, 2.0),
            span(3, 2, "fleet.vm", 0.0, 1.0),
            span(4, 3, "vcpu.drive", 0.1, 0.9),
            span(5, 2, "fleet.vm", 0.5, 1.8),
            span(6, 5, "vcpu.drive", 0.6, 1.6),
            span(7, 0, "mem.guest_boot", 3.0, 3.002),
        ]
        m = fcmetrics.per_layer(fixed_doc(), spans)
        self.assertAlmostEqual(m["vcpu.decoded_per_kinsn"], 10.0)
        self.assertAlmostEqual(m["vcpu.blocks_built_per_vm"], 100.0)
        self.assertAlmostEqual(m["vcpu.trace_share"], 0.6)
        self.assertAlmostEqual(m["vcpu.block_hit_share"], 0.25)
        self.assertAlmostEqual(m["vcpu.trace_side_exit_ratio"], 0.25)
        self.assertEqual(m["vcpu.trace_build_failures"], 3)
        self.assertAlmostEqual(m["vcpu.code_invalidations_per_vm"], 2.0)
        self.assertAlmostEqual(m["mem.tlb_miss_per_kinsn"], 4.5)
        self.assertAlmostEqual(m["mem.ept_pde_writes_per_switch"], 3.0)
        self.assertAlmostEqual(m["mem.private_frames_per_vm"], 10.0)
        self.assertAlmostEqual(m["mem.cow_promotions_per_vm"], 3.0)
        self.assertAlmostEqual(m["mem.cow_boot_us"], 2000.0, places=3)
        self.assertAlmostEqual(m["hv.exits_per_minsn"], 25.0)
        self.assertAlmostEqual(m["core.ctxsw_traps_per_minsn"], 20.0)
        self.assertAlmostEqual(m["core.same_view_skip_share"], 0.25)
        self.assertAlmostEqual(m["core.recoveries_per_vm"], 2.0)
        self.assertAlmostEqual(m["core.instant_share"], 0.25)
        self.assertAlmostEqual(m["core.recovery_cycles_share"], 0.018)
        self.assertEqual(m["core.switch_cost_p99_cycles"], 2047)
        self.assertAlmostEqual(m["io.irqs_per_kpkt"], 250.0)
        self.assertAlmostEqual(m["io.coalesced_share"], 0.75)
        self.assertAlmostEqual(m["io.dma_cycles_share"], 0.002)
        self.assertEqual(m["io.backlog_peak"], 7)
        self.assertAlmostEqual(m["os.syscalls_per_minsn"], 300.0)
        # Drive spans: 0.8 s + 1.0 s over 1e6 drive instructions.
        self.assertAlmostEqual(m["vcpu.host_ns_per_insn"], 1800.0)
        # 1.8 s of drive under fleet.vm / (4 jobs x 2.0 s fleet wall).
        self.assertAlmostEqual(m["fleet.drive_share"], 0.225)
        self.assertAlmostEqual(m["fleet.idle_share"], 0.25)
        self.assertEqual(m["fleet.steals"], 3)
        # fleet.run self: 2.0 s minus the union of its VMs [0, 1.8].
        self.assertAlmostEqual(m["fleet.self_s"], 0.2 + 0.2 + 0.3)
        self.assertAlmostEqual(m["vcpu.self_s"], 1.8)
        self.assertAlmostEqual(m["trace.overhead_pct"], 10.0)

    def test_end_to_end_values(self):
        e = fcmetrics.end_to_end(fixed_doc())
        # Boot images once (0.1 s) + the median set-up sample (2.0 s).
        self.assertAlmostEqual(e["setup_s"], 2.1)
        self.assertAlmostEqual(e["guest_minsn_per_s"], 1.0)
        self.assertEqual(e["peak_rss_mib"], 2.0)
        self.assertAlmostEqual(e["resident_kib_per_vm"], 4.0 * 1040 / 4)
        self.assertEqual(e["attacks_detected"], 16)
        self.assertLessEqual({m["name"] for m in SPEC["end_to_end"]},
                             set(e))

    def test_owned_metrics(self):
        owned = set(fcmetrics.owned_metrics(fixed_doc()))
        self.assertEqual(owned, set(fcmetrics.HOST_METRICS))
        doc = fixed_doc()
        doc["parts"]["fig6"] = doc["paper_parts"].pop("fig6")
        self.assertEqual(set(fcmetrics.owned_metrics(doc)) - owned,
                         {"fc_overhead_pct", "fc_ctxsw_ratio"})

    def test_checks(self):
        doc = fixed_doc()
        store = {}
        self.assertTrue(all(ok for _, ok, _ in
                            fcmetrics.check_outputs(doc, store)))
        doc["paper_parts"]["table2"]["results"]["attacks_detected"] = 15
        doc["rounds"][1]["parts"]["churn"]["digest"] = "other"
        failed = {n for n, ok, _ in fcmetrics.check_outputs(doc, store)
                  if not ok}
        self.assertIn("attacks_detected == 16", failed)
        self.assertIn("digest stable across rounds: churn", failed)
        doc = fixed_doc()
        doc["paper_parts"]["fig6"]["digest"] = "changed"
        doc["paper_parts"]["fig6"]["results"]["fc_overhead_pct"] = 0.0
        failed = {n for n, ok, _ in fcmetrics.check_outputs(doc, store)
                  if not ok}
        self.assertEqual(failed, {"digest matches earlier runs: fig6",
                                  "fc_overhead_pct in (0, 15]"})

    def failed_checks(self, doc):
        return {n for n, ok, _ in fcmetrics.check_outputs(doc, {}) if not ok}

    def test_one_fault_fails_the_run(self):
        # A fault in the first round's counters of any part (own or paper
        # pass) fails the run, and so does one in a later round.
        for where in ("parts", "paper_parts"):
            doc = fixed_doc()
            part = next(iter(doc[where].values()))
            part["counters"]["faults"] = 1
            self.assertEqual(self.failed_checks(doc), {"no VM faulted"},
                             where)
        doc = fixed_doc()
        doc["rounds"][1]["faults"] = 1
        self.assertEqual(self.failed_checks(doc), {"no VM faulted"})

    def test_udp_knee_zero_fails(self):
        doc = fixed_doc()
        doc["paper_parts"]["udp"]["results"]["udp_knee_pps"] = 0
        self.assertEqual(self.failed_checks(doc), {"UDP knee found"})


class TinyRunTest(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for workload in ("fleet_churn", "unixbench_single",
                         "attack_recovery", "http_open_loop"):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [sys.executable, os.path.join(BENCH, "run.py"),
                         "--workload", workload, "--seed", "7",
                         "--seconds", "0.1", "--trace", trace, "--tiny"],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=900)
                    self.assertEqual(out.returncode, 0, out.stdout[-3000:]
                                     + out.stderr[-3000:])
                    res = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
                    self.assertEqual(set(res["metrics"]),
                                     {m["name"] for m in want})


if __name__ == "__main__":
    unittest.main()
