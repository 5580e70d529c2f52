"""Metric derivation, output checks and run comparison for fcbench.

Everything here is a pure function of the driver's JSON document (and its
span file), so the self-tests can feed it fixed inputs. See METRICS.md for
what every metric means and which layer it belongs to.
"""

import hashlib
import json
import os
import statistics

HOST_METRICS = ("setup_s", "guest_minsn_per_s", "peak_rss_mib",
                "resident_kib_per_vm")  # every workload computes these itself

FC_OVERHEAD_RANGE = (0.0, 15.0)  # (exclusive, inclusive) percent
EXPECTED_ATTACKS = 16
VALID_BUILD_TYPES = ("Release", "RelWithDebInfo")


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


# ---------------------------------------------------------------------------
# Rounds.
# ---------------------------------------------------------------------------

def host_rounds(doc):
    """Untraced rounds that time the workload: round 0 is a warm-up and is
    dropped whenever at least two untraced rounds remain after it."""
    untraced = [r for r in doc["rounds"] if not r["traced"]]
    if len(untraced) >= 3 and doc["rounds"][0] is untraced[0]:
        return untraced[1:]
    return untraced


def traced_rounds(doc):
    return [r for r in doc["rounds"] if r["traced"]]


def merged_counters(parts):
    """Sum the counters of several parts (keys ending in _peak take the max,
    as in the driver)."""
    out = {}
    for part in parts:
        for key, value in part.get("counters", {}).items():
            if key.endswith("_peak"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# End-to-end metrics.
# ---------------------------------------------------------------------------

def resident_kib_per_vm(counters):
    """COW frames resident per VM: each fleet's shared store pages (or a
    standalone VM's boot image) plus every VM's private frames, in KiB."""
    frames = counters.get("mem.store_pages", 0) + counters.get(
        "mem.private_frames", 0)
    return ratio(frames * 4.0, counters.get("vms", 0))


def all_parts(doc):
    """The workload's own parts plus the paper pass's."""
    parts = dict(doc["parts"])
    parts.update(doc.get("paper_parts", {}))
    return parts


def results(parts):
    """Every simulated result of `parts`, by name."""
    out = {}
    for part in parts.values():
        out.update(part["results"])
    return out


def owned_metrics(doc):
    """End-to-end metrics the workload's own timed rounds compute (the rest
    come from the paper pass)."""
    return sorted(set(HOST_METRICS) | set(results(doc["parts"])))


def end_to_end(doc):
    """Every end-to-end metric (name -> value) from an untraced run, plus
    the simulated side results (knee saturation, unserved requests)."""
    rounds = host_rounds(doc)
    values = results(all_parts(doc))
    values.update({
        # The boot images are built once per process (memoized); every
        # later set-up step is sampled, and its median taken. Set-up and
        # the timed work are in process CPU seconds.
        "setup_s": doc["setup"]["boot_image_s"] + median(
            doc["setup_samples"]),
        "guest_minsn_per_s": median(
            [ratio(r["timed_insns"], r["timed_cpu_s"], 1e-6) for r in rounds]),
        "peak_rss_mib": doc["peak_rss_kib"] / 1024.0,
        "resident_kib_per_vm": resident_kib_per_vm(
            merged_counters(doc["parts"].values())),
    })
    return values


def operations(doc):
    """(attempted, failed) over every timed round of the workload."""
    attempted = failed = 0
    for r in doc["rounds"]:
        for part in r["parts"].values():
            attempted += part["attempted"]
            failed += part["failed"]
    return attempted, failed


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------

def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """span id -> duration minus the part of it its children cover."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    return {
        sp["id"]: (sp["end"] - sp["start"]) - covered(
            [(c["start"], c["end"]) for c in children.get(sp["id"], [])])
        for sp in spans
    }


def in_rounds(spans):
    """Spans that descend from a bench.round span."""
    by_id = {sp["id"]: sp for sp in spans}
    keep = []
    for sp in spans:
        node = sp
        while node is not None and node["name"] != "bench.round":
            node = by_id.get(node["parent"])
        if node is not None:
            keep.append(sp)
    return keep


def durations(spans, name):
    return [sp["end"] - sp["start"] for sp in spans if sp["name"] == name]


LAYERS = ("bench", "harness", "fleet", "mem", "core", "vcpu", "os")


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def per_layer(doc, spans):
    """Every per-layer metric (name -> value) from a traced run."""
    own = list(doc["parts"].values())
    c = merged_counters(own)
    insns = c.get("instructions", 0)
    vms = c.get("vms", 0)
    traced = traced_rounds(doc)
    n_traced = max(len(traced), 1)
    round_spans = in_rounds(spans)
    selfs = self_times(round_spans)

    fleet_wall = sum(p["fleet_wall_s"] for r in traced
                     for p in r["parts"].values())
    fleet_cpu = sum(p["fleet_cpu_s"] for r in traced
                    for p in r["parts"].values())
    jobs = doc["fingerprint"]["jobs"]
    by_id = {sp["id"]: sp for sp in round_spans}
    fleet_drive = sum(
        sp["end"] - sp["start"] for sp in round_spans
        if sp["name"] == "vcpu.drive"
        and by_id.get(sp["parent"], {}).get("name") == "fleet.vm")
    drive_s = sum(durations(round_spans, "vcpu.drive")) / n_traced
    packets = c.get("io.nic_delivered", 0) + c.get("io.blk_completions", 0)
    sc_part = max(own, key=lambda p: p.get("switch_cost_count", 0))
    untraced_walls = [r["wall_s"] for r in host_rounds(doc)]
    traced_walls = [r["wall_s"] for r in traced]

    m = {
        "harness.profile_s": doc["setup"]["profile_s"],
        "harness.boot_image_s": doc["setup"]["boot_image_s"],
        "harness.image_s": doc["setup"]["image_s"],
        "fleet.drive_share": ratio(fleet_drive, jobs * fleet_wall),
        "fleet.idle_share": (1.0 - ratio(fleet_cpu, jobs * fleet_wall)
                             if fleet_wall else 0.0),
        "fleet.steals": median([sum(p["fleet_steals"]
                                    for p in r["parts"].values())
                                for r in traced]),
        "mem.cow_boot_us": 1e6 * median(durations(spans, "mem.guest_boot")),
        "mem.private_frames_per_vm": ratio(c.get("mem.private_frames", 0),
                                           vms),
        "mem.cow_promotions_per_vm": ratio(c.get("mem.cow_promotions", 0),
                                           vms),
        "mem.tlb_miss_per_kinsn": ratio(c.get("mmu.tlb_misses", 0), insns,
                                        1e3),
        "mem.ept_pde_writes_per_switch": ratio(c.get("ept.pde_writes", 0),
                                               c.get("core.view_switches", 0)),
        "vcpu.host_ns_per_insn": ratio(drive_s, c.get("drive.insns", 0), 1e9),
        "vcpu.decoded_per_kinsn": ratio(c.get("block.insns_decoded", 0),
                                        insns, 1e3),
        "vcpu.blocks_built_per_vm": ratio(c.get("block.built", 0), vms),
        "vcpu.trace_share": ratio(c.get("trace.insns", 0), insns),
        "vcpu.block_hit_share": ratio(c.get("block.insn_hits", 0), insns),
        "vcpu.trace_side_exit_ratio": ratio(c.get("trace.side_exits", 0),
                                            c.get("trace.dispatched", 0)),
        "vcpu.trace_build_failures": c.get("trace.build_failures", 0),
        "vcpu.code_invalidations_per_vm": ratio(
            c.get("block.inval_code_load", 0)
            + c.get("trace.inval_code_load", 0), vms),
        "hv.exits_per_minsn": ratio(c.get("hv.exits", 0), insns, 1e6),
        "core.ctxsw_traps_per_minsn": ratio(c.get("core.ctxsw_traps", 0),
                                            insns, 1e6),
        "core.same_view_skip_share": ratio(c.get("core.same_view_skips", 0),
                                           c.get("core.ctxsw_traps", 0)),
        "core.switch_cost_p50_cycles": sc_part.get("switch_cost_p50", 0),
        "core.switch_cost_p99_cycles": sc_part.get("switch_cost_p99", 0),
        "core.adopt_views_us": 1e6 * median(
            durations(spans, "core.adopt_views")),
        "core.switch_host_us": 1e6 * median(
            durations(spans, "core.force_activate")),
        "core.recoveries_per_vm": ratio(c.get("core.recoveries", 0), vms),
        "core.recoveries_per_minsn": ratio(c.get("core.recoveries", 0),
                                           insns, 1e6),
        "core.instant_share": ratio(c.get("core.instant_recoveries", 0),
                                    c.get("core.recoveries", 0)),
        "core.recovery_cycles_share": ratio(c.get("core.recovery_cycles", 0),
                                            c.get("cycles", 0)),
        "harness.attack_ms": 1e3 * median(
            durations(spans, "harness.run_attack")),
        "io.irqs_per_kpkt": ratio(c.get("io.irqs_raised", 0), packets, 1e3),
        "io.irqs_per_minsn": ratio(c.get("io.irqs_raised", 0), insns, 1e6),
        "io.completions_per_minsn": ratio(packets, insns, 1e6),
        "io.coalesced_share": ratio(c.get("io.coalesced", 0), packets),
        "io.backpressure": c.get("io.backpressure", 0),
        "io.backlog_peak": c.get("io.backlog_peak", 0),
        "io.dma_cycles_share": ratio(c.get("io.dma_cycles", 0),
                                     c.get("cycles", 0)),
        "os.event_queue_max_depth": c.get("os.event_queue_depth_peak", 0),
        "os.syscalls_per_minsn": ratio(c.get("os.syscalls", 0), insns, 1e6),
        "trace.overhead_pct": (100.0 * (ratio(median(traced_walls),
                                              median(untraced_walls)) - 1.0)
                               if traced_walls and untraced_walls else 0.0),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(
            selfs[sp["id"]] for sp in round_spans
            if sp["name"].split(".")[0] == layer) / n_traced
    return m


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

def check_outputs(doc, digest_store):
    """List of (check name, ok, detail). `digest_store` maps
    "part/seed/size" to a digest seen by an earlier run in this checkout; it
    is updated in place with this run's digests."""
    checks = []
    parts = all_parts(doc)

    for name in doc["parts"]:
        seen = {r["parts"][name]["digest"] for r in doc["rounds"]}
        checks.append(("digest stable across rounds: " + name,
                       len(seen) == 1, ", ".join(sorted(seen))))
    size = "tiny" if doc.get("tiny") else "full"
    for name, part in parts.items():
        key = "%s/%s/%s" % (name, doc["seed"], size)
        prev = digest_store.setdefault(key, part["digest"])
        checks.append(("digest matches earlier runs: " + name,
                       prev == part["digest"],
                       "%s vs %s" % (part["digest"], prev)))

    c = merged_counters(parts.values())
    faults = sum(r["faults"] for r in doc["rounds"]) + c.get("faults", 0)
    checks.append(("no VM faulted", faults == 0, "faults=%d" % faults))
    checks.append(("no VM ran out of budget",
                   c.get("fleet.out_of_budget", 0) == 0,
                   "out_of_budget=%d" % c.get("fleet.out_of_budget", 0)))
    off = c.get("core.instant_off_hazard_set", 0)
    checks.append(("recovery.instant_off_hazard_set == 0", off == 0,
                   "instant_off_hazard_set=%d" % off))

    res = results(parts)
    detected = res["attacks_detected"]
    checks.append(("attacks_detected == %d" % EXPECTED_ATTACKS,
                   detected == EXPECTED_ATTACKS, "detected=%g" % detected))
    unserved = res["http_unserved_at_or_below_ref"]
    checks.append(("every request at or below the reference rate served",
                   unserved == 0 and res["http_knee_rps"] > 0,
                   "unserved=%g knee=%g" % (unserved, res["http_knee_rps"])))
    checks.append(("UDP knee found", res["udp_knee_pps"] > 0,
                   "udp_knee_pps=%g saturated=%g" % (
                       res["udp_knee_pps"], res["udp_knee_saturated"])))
    overhead = res["fc_overhead_pct"]
    lo, hi = FC_OVERHEAD_RANGE
    checks.append(("fc_overhead_pct in (%g, %g]" % (lo, hi),
                   lo < overhead <= hi, "fc_overhead_pct=%g" % overhead))
    return checks


def host_metrics_valid(fingerprint):
    """Host timings count only from optimized, unsanitized builds."""
    return (fingerprint["build_type"] in VALID_BUILD_TYPES
            and fingerprint["sanitize"] in ("OFF", ""))


# ---------------------------------------------------------------------------
# Comparison of two sets of runs.
# ---------------------------------------------------------------------------

def worsening(base, head, better):
    """Share by which `head` is worse than `base` (negative = better)."""
    if base == 0:
        return 0.0
    delta = (head - base) / abs(base)
    return delta if better == "lower" else -delta


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def compare(base_runs, head_runs, spec):
    """Compare two sets of runs of one workload.

    `base_runs` / `head_runs` are lists of metric dicts ({name: value}).
    Returns one row per end-to-end metric: (name, base median, head median,
    worsening share, bound, regressed?)."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base = [r[name] for r in base_runs if name in r]
        head = [r[name] for r in head_runs if name in r]
        if not base or not head:
            continue
        b, h = statistics.median(base), statistics.median(head)
        w = worsening(b, h, metric["better"])
        # The epsilon keeps a worsening of exactly the bound from tripping
        # on float rounding.
        bad = w > metric["bound"] + 1e-9
        rows.append((name, b, h, w, metric["bound"], bad))
    return rows


def source_digest(root, subdirs):
    """sha256 over the sources the benchmark builds (a stand-in for the git
    commit when the checkout is not a repository)."""
    h = hashlib.sha256()
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()
