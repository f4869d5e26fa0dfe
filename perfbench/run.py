#!/usr/bin/env python3
"""Whirlpool benchmark: builds the driver, makes seeded inputs, runs workloads.

Run from the repository root:

  python3 perfbench/run.py --workload hot_mix --seed 42 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all              # every workload, e2e
  python3 perfbench/run.py --self-check                # perturbed reference
  python3 perfbench/run.py --compare OLD.json NEW.json

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Every run also writes its full result, with provenance
and inputs, under .wpbench/results/. README.md in this directory describes
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".wpbench"
WORKLOADS = ["hot_mix", "engine_deep", "cold_start"]
SUBPROCESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, what, timeout=SUBPROCESS_TIMEOUT_S):
    """Runs cmd to completion; on failure shows its output and exits."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out after {timeout} s")
    if p.returncode != 0:
        sys.stderr.write((p.stdout + p.stderr)[-4000:])
        fail(f"{what} failed with exit code {p.returncode}")
    return p.stdout


def build():
    """Configures and builds the driver; a no-op when it is up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Whirlpool sources next to {BENCH_DIR.name}/")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    binary = build_dir / "wpbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release", *gen], "cmake configure", timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs], "build", timeout=900)
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def make_inputs(binary, seed, data):
    """Generates the document, snapshot and reference scores for `seed`."""
    data.mkdir(parents=True)
    run_quiet([str(binary), "gen", "--seed", str(seed), "--dir", str(data)], "input generation")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def run_workload(binary, data, workload, seed, seconds, trace, perturb=False):
    spans_path = WORK / "spans" / f"{workload}-seed{seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed), "--dir", str(data),
           "--seconds", str(seconds), "--trace", "1" if trace else "0", "--spans", str(spans_path)]
    if perturb:
        cmd.append("--perturb-reference")
    out = run_quiet(cmd, f"workload {workload}")
    raw = json.loads(out.strip().splitlines()[-1])
    spans = json.loads(spans_path.read_text()) if trace else []
    return raw, spans


# ---- metrics -----------------------------------------------------------------

def end_to_end(raw):
    ops = raw["ops"]
    lat = [o["ms"] for o in ops]
    m = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "latency_ms.p50": (statistics.median(lat), "ms"),
        "throughput_qps": (len(ops) / raw["timed_s"], "ops/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    extra = {"error_rate": (raw["failed"] / raw["attempted"], "share"),
             "latency_ms.samples": (len(lat), "count")}
    # p90 needs at least ten samples beyond it.
    if len(lat) - -(-len(lat) * 9 // 10) >= 10:
        extra["latency_ms.p90"] = (percentile(lat, 90), "ms")
    for engine in ("ws", "wm", "lockstep"):
        own = [o["ms"] for o in ops if o["engine"] == engine]
        if raw["workload"] == "engine_deep" and own:
            extra[f"{engine}_ms.p50"] = (statistics.median(own), "ms")
    return m, extra


LAYER_SPANS = {
    "xml.parse_ms": "xml.parse",
    "xml.snapshot_load_ms": "xml.snapshot_load",
    "xml.dewey_ms": "xml.dewey",
    "xml.destroy_ms": "xml.destroy",
    "index.build_ms": "index.build",
    "index.build_novalue_ms": "index.build_novalue",
    "index.destroy_ms": "index.destroy",
    "score.tfidf_ms": "score.tfidf",
    "exec.plan_build_ms": "exec.plan_build",
    "exec.run_ms.ws": "exec.run.ws",
    "exec.run_ms.wm": "exec.run.wm",
    "exec.run_ms.lockstep": "exec.run.lockstep",
}
COUNTERS = ["server_ops", "matches_created", "matches_pruned", "matches_completed",
            "predicate_comparisons", "routing_decisions"]


def self_times(spans):
    """Per span: (name, duration, self time = duration minus its children)."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[2] - s[1], s[2] - s[1] - child[i]) for i, s in enumerate(spans)]


def per_layer(raw, spans):
    """Per-layer metrics of a traced run.

    Times are the mean self time per call of each layer span. Engine counters
    are means over the Whirlpool-S ops of the first cycle, whose queries the
    seed fixes, so two traced runs of one seed give identical counters.
    """
    timed = self_times(spans)
    m = {}
    for metric, name in LAYER_SPANS.items():
        own = [t[2] for t in timed if t[0] == name]
        if not own:
            fail(f"traced run recorded no {name} span")
        m[metric] = (statistics.mean(own) / 1e6, "ms")
    parses = [t[2] for t in timed if t[0] == "query.xpath_parse"]
    m["query.xpath_parse_us"] = (statistics.mean(parses) / 1e3, "us")
    m["index.rss_mb"] = (raw["index_rss_mb"], "MB")

    ops = raw["ops"]
    first = [o for o in ops if o["cycle"] == 0 and o["engine"] == "ws"]
    for c in COUNTERS:
        m[f"exec.{c}"] = (statistics.mean(o[c] for o in first), "count")
    created = sum(o["matches_created"] for o in first)
    m["query.root_candidates"] = (statistics.mean(o["root_candidates"] for o in first), "count")
    m["exec.roots_share"] = (sum(o["root_candidates"] for o in first) / created, "share")
    m["exec.useful_ratio"] = (sum(o["matches_completed"] for o in first) / created, "share")
    # Means, not the histograms' p50s: those are bucket midpoints, which
    # often read the same on every run.
    traced_ws = [o["server_op_us_mean"] for o in ops if o["traced"] and o["engine"] == "ws"]
    m["exec.server_op_us.mean"] = (statistics.mean(traced_ws), "us")
    # W-M queue waits come from the workload's W-M ops, else from the probe.
    wm_waits = [o["queue_wait_us_mean"] for o in ops if o["traced"] and o["engine"] == "wm"]
    m["exec.queue_wait_us.mean"] = (statistics.mean(wm_waits) if wm_waits
                                    else raw["probe_queue_wait_us_mean"], "us")

    plain = [o["ms"] for o in ops if not o["traced"]]
    traced = [o["ms"] for o in ops if o["traced"]]
    m["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(plain) - 1) * 100, "%")
    op_spans = [t for t in timed if t[0] == "op"]
    covered = sum(t[1] - t[2] for t in op_spans) / sum(t[1] for t in op_spans)
    m["trace.coverage_pct"] = (covered * 100, "%")
    return m


# ---- provenance and results --------------------------------------------------

def provenance(raw):
    sha = "unknown"  # the checkout need not be a git repository
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            sha = git[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    tree = hashlib.sha256()
    for base in ("src", "bench", BENCH_DIR.name):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                tree.update(str(p.relative_to(ROOT)).encode())
                tree.update(p.read_bytes())
    return {"git_sha": sha, "source_sha256": tree.hexdigest(), "nproc": os.cpu_count(),
            "build_type": raw["build_type"], "compiler": raw["compiler"], "op_cost": 0}


def print_metrics(workload, metrics, extra=None):
    for name, (value, unit) in list(metrics.items()) + list((extra or {}).items()):
        print(f"{workload:12s} {name:28s} {value:14.4f} {unit}")


def measure(binary, workload, seed, seconds, trace, perturb=False):
    # Per process, so that concurrent runs in one checkout do not collide.
    data = WORK / f"data-{os.getpid()}"
    try:
        make_inputs(binary, seed, data)
        raw, spans = run_workload(binary, data, workload, seed, seconds, trace, perturb)
        inputs = json.loads((data / "inputs.json").read_text())
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if trace:
        metrics, extra = per_layer(raw, spans), {}
    else:
        metrics, extra = end_to_end(raw)
    spec = load_spec()
    if spec:
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        if got != want:
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    for f in raw["failures"]:
        print(f"{workload}: FAILED {f}")
    print_metrics(workload, metrics, extra)
    return {"workload": workload, "trace": int(trace), "seconds": seconds,
            "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "inputs": inputs, "provenance": provenance(raw)}


def load_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def write_result(result, name):
    path = WORK / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result written to {path.relative_to(ROOT)}")


def summary_line(results, flatten):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for r in results:
        for k, v in r["metrics"].items():
            metrics[f"{r['workload']}/{k}" if flatten else k] = v
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---- compare -----------------------------------------------------------------

def load_runs(path):
    doc = json.loads(Path(path).read_text())
    runs = doc["runs"] if "runs" in doc else [doc]
    return {(r["workload"], r["trace"]): r for r in runs}


def compare(old_path, new_path):
    spec = load_spec() or {"end_to_end": []}
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    old, new = load_runs(old_path), load_runs(new_path)
    print(f"{'workload':12s} {'metric':22s} {'old':>12s} {'new':>12s} {'delta':>9s}"
          f" {'bound':>7s}  verdict")
    worse = 0
    for key in sorted(set(old) & set(new)):
        if key[1] != 0:
            continue
        before = {**old[key]["metrics"], **old[key].get("extra", {})}
        after = {**new[key]["metrics"], **new[key].get("extra", {})}
        for name, o in before.items():
            if name not in after:
                continue
            a, b = o["value"], after[name]["value"]
            delta = (b - a) / a if a else 0.0
            bound, better = bounds.get(name, (None, "lower"))
            regress = -delta if better == "higher" else delta
            verdict = "-" if bound is None else ("WORSE" if regress > bound else "ok")
            worse += verdict == "WORSE"
            print(f"{key[0]:12s} {name:22s} {a:12.4f} {b:12.4f} {delta * 100:8.2f}%"
                  f" {'' if bound is None else f'{bound * 100:.0f}%':>7s}  {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--self-check", action="store_true",
                    help="perturb the reference scores; passes if every op is caught")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print the end-to-end deltas between two result files")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = build()
    if args.self_check:
        r = measure(binary, "hot_mix", args.seed, min(args.seconds, 2), False, perturb=True)
        rate = r["failed"] / r["attempted"]
        print(f"self-check: a perturbed reference gives error_rate {rate:.3f}:"
              f" {'caught' if rate > 0 else 'NOT caught'}")
        return 0 if rate > 0 else 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    stamp = time.strftime("%Y%m%d-%H%M%S")
    results = [measure(binary, w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    write_result({"runs": results} if len(results) > 1 else results[0], tag)
    print(json.dumps(summary_line(results, flatten=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
