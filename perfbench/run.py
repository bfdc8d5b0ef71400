#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kv-get-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is the Go program in this directory (its own module, which
builds the repository's packages from source). This script builds it into
the build directory ($CARGO_TARGET_DIR, else .bench_build at the checkout
root), runs it from the checkout root, and passes its output through: the
last line of standard output is the JSON result. Spans and the result
history go to <build dir>/perfbench-out.

--selftest runs every workload at a tiny scale, traced and untraced, and
checks that each emits exactly the metric names and units BENCHMARK.json
lists, that each workload records the reason BENCHMARK.json gives for it,
and that the traced spans nest with non-negative self times.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 175  # seconds; a run must end within 180


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark binary; return its path or None on failure."""
    out = build_dir()
    env = dict(os.environ)
    # Keep the toolchain's caches and configuration inside the checkout.
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    try:
        os.makedirs(out, exist_ok=True)
        r = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def run_binary(binary, args, capture=False):
    """Run the benchmark binary from the checkout root; return (code, stdout)."""
    cmd = [binary, "--out", os.path.join(build_dir(), "perfbench-out")] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT}s", file=sys.stderr)
        return 1, ""
    return r.returncode, r.stdout or ""


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def check_spans(path):
    """Check the span file: nesting, shared operation ids, self time >= 0."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    bad = []
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            bad.append(f"span {s['id']} ends before it starts")
        if s["self_ns"] < 0:
            bad.append(f"span {s['id']} has negative self time")
        if s["parent"] == 0:
            if s["op"] != s["id"]:
                bad.append(f"root span {s['id']} op {s['op']}")
            continue
        p = spans.get(s["parent"])
        if p is None:
            bad.append(f"span {s['id']} has unknown parent")
        elif s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            bad.append(f"span {s['id']} {s['name']!r} outside parent {p['name']!r}")
        elif s["op"] != p["op"]:
            bad.append(f"span {s['id']} op differs from its parent's")
    return len(spans), bad


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    code, out = run_binary(binary, ["--list"], capture=True)
    if code != 0:
        return 1
    listed = json.loads(out)
    problems = []
    whys = {w["name"]: w["why"] for w in listed["workloads"]}
    for w in spec["workloads"]:
        if whys.get(w["name"]) != w["why"]:
            problems.append(f"workload {w['name']}: reason differs from the benchmark's")
    if set(whys) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ from BENCHMARK.json")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            seed = 7
            code, out = run_binary(binary, ["--workload", w["name"], "--seed", str(seed),
                                            "--seconds", "1", "--trace", str(trace), "--tiny"],
                                   capture=True)
            tag = f"{w['name']} trace={trace}"
            res = last_json(out) if out else None
            if code != 0 or not res:
                problems.append(f"{tag}: exit {code}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res.get("correct"):
                problems.append(f"{tag}: correctness checks failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ: {sorted(set(got) ^ set(want))}")
            if trace:
                path = os.path.join(build_dir(), "perfbench-out", f"spans-{w['name']}-seed{seed}.jsonl")
                n, bad = check_spans(path)
                problems += [f"{tag}: {b}" for b in bad]
                if n == 0:
                    problems.append(f"{tag}: no spans")
            print(f"selftest {tag}: ok" if not problems else f"selftest {tag}: {len(problems)} problem(s) so far",
                  flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: PASS" if not problems else "selftest: FAIL")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if a.selftest:
        return selftest(binary)
    code, _ = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
