#!/usr/bin/env python3
"""fcbench: the repository's end-to-end benchmark.

    python3 fcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the driver from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks its outputs
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric (plus the tracing overhead). The full record (build
fingerprint, checks, digests, every metric) goes to .bench_out/. Exits
non-zero if the build fails or an output check fails.

Workloads, metrics and the held-out seed are described in METRICS.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import fcmetrics  # noqa: E402

WORKLOADS = ("fleet_churn", "unixbench_single", "attack_recovery",
             "http_open_loop")
DEADLINE_S = 170  # the driver run; the build is not counted


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the driver; returns its path or None."""
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, "fcbench_driver")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (self-tests); metrics not comparable")
    a = ap.parse_args()

    spec = fcmetrics.load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    driver = build()
    if driver is None:
        log("fcbench: build failed")
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d%s" % (
        a.workload, a.seed, a.trace, "-tiny" if a.tiny else ""))
    run_args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--out", stem + ".driver.json"]
    if a.trace:
        run_args += ["--spans", stem + ".spans.json"]
    if a.tiny:
        run_args.append("--tiny")
    subprocess.run([driver] + run_args, check=True, stdout=sys.stderr,
                   timeout=DEADLINE_S)
    doc = load_json(stem + ".driver.json", None)

    digest_path = os.path.join(out_dir, "digests.json")
    digests = load_json(digest_path, {})
    checks = fcmetrics.check_outputs(doc, digests)
    with open(digest_path, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
    correct = all(ok for _, ok, _ in checks)

    fingerprint = dict(doc["fingerprint"])
    fingerprint["git_commit"] = git_commit()
    fingerprint["source_sha256"] = fcmetrics.source_digest(
        ROOT, ["src", "bench", "fcbench"])
    host_valid = fcmetrics.host_metrics_valid(fingerprint)

    if a.trace:
        spans = load_json(stem + ".spans.json", {"spans": []})["spans"]
        values = fcmetrics.per_layer(doc, spans)
        wanted = spec["per_layer"]
    else:
        values = fcmetrics.end_to_end(doc)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = fcmetrics.operations(doc)

    record = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "seconds": a.seconds, "tiny": a.tiny, "fingerprint": fingerprint,
        "host_metrics_valid": host_valid, "correct": correct,
        "attempted": attempted, "failed": failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "digests": {name: part["digest"] for name, part in
                    fcmetrics.all_parts(doc).items()},
        "boot_image_s": doc["setup"]["boot_image_s"],
        "setup_samples_s": doc["setup_samples"], "metrics": values,
        "owned": [] if a.trace else fcmetrics.owned_metrics(doc),
    }
    with open(stem + ".result.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("fcbench %s seed=%d trace=%d  build=%s %s obs_disabled=%s "
          "sanitize=%s nproc=%s commit=%s" % (
              a.workload, a.seed, a.trace, fingerprint["build_type"],
              fingerprint["compiler"], fingerprint["fc_obs_disabled"],
              fingerprint["sanitize"], fingerprint["nproc"],
              fingerprint["git_commit"] or "n/a"))
    if not host_valid:
        print("  host metrics INVALID (not an optimized, unsanitized build)")
    for name, m in metrics.items():
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  operations attempted=%d failed=%d" % (attempted, failed))
    for name, ok, detail in checks:
        if not ok:
            print("  CHECK FAILED: %s (%s)" % (name, detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, KeyError, TypeError, ValueError) as e:
        log("fcbench: %s" % e)
        sys.exit(1)
