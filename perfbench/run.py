"""Cold-process benchmark for oddmaps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --acceptance

Run from the root of a checkout; the package is imported from its ``src/``.
A run repeats cold rounds of one workload, each in a fresh interpreter, until
``--seconds`` have passed (at least MIN_ROUNDS rounds). A fresh interpreter
matters because the package's ``lru_cache``s are process-global: a second
round in the same process would only measure cache hits. Round r of seed N
uses inputs made from seed N * 1000 + r, so the same seed gives the same
inputs. Every round checks every answer against the benchmark's own reference
code.

The speed of a shared machine drifts by 15-20 % over minutes, which no
median within a 30-second run removes. So this process times a fixed probe
(see ``probe``) just before and just after each untraced round, and the
``norm_`` metrics scale the round's wall time by PROBE_REF_S over the mean of
those two probes: seconds at the probe speed of the machine that defined the
benchmark. The probe never runs in a round's interpreter,
so nothing the package does to its own process can change it.

With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric named in BENCHMARK.json, each the median over rounds. With
``--trace 1`` untraced and traced rounds alternate on the same inputs, and
the metrics are the per-layer ones: medians over traced rounds, plus the
ratio of traced to untraced wall time. A line before the result records the
machine. ``--acceptance`` instead runs the repository's acceptance gate once
and reports each criterion's seconds against its budget; it edits nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_ROUNDS = 3
MAX_ROUNDS = 200
ROUND_TIMEOUT_S = 120
# Median probe seconds on the 2-core Xeon box where the benchmark was defined.
PROBE_REF_S = 0.14


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_header():
    """nproc, Python version, CPU model and git commit of the checkout."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD of the checkout read from its .git directory, or "unknown"
    outside a git work tree. Reads files only, so it never looks above root."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe():
    """Seconds this process takes for a fixed piece of pure-Python work: the
    reference code building and checking all 1024 odd partitions of 31."""
    start = time.perf_counter()
    odd = reference.all_odd_partitions(31)
    if not all(reference.is_odd_degree(lam) for lam in odd):
        raise RuntimeError("probe work went wrong")
    return time.perf_counter() - start


def run_round(workload, seed, trace):
    """One cold round in a fresh interpreter; returns its parsed result with
    ``setup_s`` measured from just before the interpreter was started."""
    spans = os.path.join(OUT_DIR, f"{workload}.spans.json")
    cmd = [sys.executable, "-S", WORKER, workload, str(seed), "1" if trace else "0", spans]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round of {workload} (seed {seed}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_end") - started
    return result


def run_rounds(workload, seed, seconds, trace):
    """Cold rounds until ``seconds`` have passed; with ``trace`` each untraced
    round is followed by a traced round on the same inputs. Each untraced
    round's ``probe_s`` is the mean of the probes timed just before and just
    after it."""
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced = [], []
    after = probe()
    deadline = time.monotonic() + seconds
    r = 0
    while r < MIN_ROUNDS or (time.monotonic() < deadline and r < MAX_ROUNDS):
        round_seed = seed * 1000 + r
        before = probe() if trace else after
        result = run_round(workload, round_seed, False)
        after = probe()
        result["probe_s"] = (before + after) / 2
        plain.append(result)
        if trace:
            traced.append(run_round(workload, round_seed, True))
        r += 1
    return plain, traced


def end_to_end(plain):
    """The end-to-end figures of untraced rounds, each a median over rounds."""
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    norm = [r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in plain]
    return {
        "norm_wall_s": statistics.median(norm),
        "norm_items_per_s": statistics.median((r["attempted"] - r["failed"]) / w for r, w in zip(plain, norm)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "ok_ratio": (attempted - failed) / attempted,
    }


def raw(plain):
    """Unscaled wall time, item rate and probe time of untraced rounds."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "items_per_s": statistics.median((r["attempted"] - r["failed"]) / r["wall_s"] for r in plain),
        "probe_s": statistics.median(r["probe_s"] for r in plain),
    }


def per_layer(plain, traced):
    """Per-layer figures of traced rounds, each a median over rounds. Figures
    a round could not measure (say, a cache that no longer exists) are absent
    from its result and read as 0."""
    names = {name for r in traced for name in r["layers"]}
    values = {name: statistics.median(r["layers"].get(name, 0.0) for r in traced) for name in names}
    values["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in plain
    )
    return values


def report(spec, plain, traced):
    """The result object: every metric BENCHMARK.json names for this mode."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = per_layer(plain, traced) if traced else end_to_end(plain)
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }


# --acceptance: per-criterion seconds of the acceptance gate against budgets.

# pytest -q may print progress dots on the same line, so lines are searched.
GATE_LINE = re.compile(r"ACCEPTANCE\s+(\d+) (.*): (PASS|FAIL) \(([\d.]+)s\)")
GATE_BUDGET = re.compile(r"_Gate\(\s*(\d+),\s*\"[^\"]*\",\s*([\d.]+)\s*\)")


def acceptance():
    """Run the acceptance gate once with -s and parse its ACCEPTANCE lines."""
    test_file = os.path.join(ROOT, "tests", "test_acceptance.py")
    with open(test_file, encoding="utf-8") as fh:
        budgets = {int(n): float(b) for n, b in GATE_BUDGET.findall(fh.read())}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-m", "pytest", test_file, "-s", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    criteria = []
    for line in proc.stdout.splitlines():
        m = GATE_LINE.search(line)
        if m:
            n, seconds = int(m.group(1)), float(m.group(4))
            budget = budgets.get(n)
            criteria.append(
                {
                    "criterion": n,
                    "label": m.group(2),
                    "status": m.group(3),
                    "seconds": seconds,
                    "budget_s": budget,
                    "headroom_s": None if budget is None else round(budget - seconds, 1),
                    "budget_used": None if budget is None else round(seconds / budget, 3),
                }
            )
    for c in criteria:
        print(f"criterion {c['criterion']:2d} {c['status']} {c['seconds']:6.1f}s of {c['budget_s']}s  {c['label']}")
    print(json.dumps({"machine": machine_header(), "pytest_exit": proc.returncode, "criteria": criteria}))
    return proc.returncode if criteria else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true", help="report the acceptance gate's timings")
    args = parser.parse_args(argv)
    if args.acceptance:
        return acceptance()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    plain, traced = run_rounds(args.workload, args.seed, args.seconds, args.trace == 1)
    result = report(spec, plain, traced)
    print("# machine " + json.dumps(machine_header()))
    print(f"# rounds untraced={len(plain)} traced={len(traced)}")
    print("# raw " + json.dumps(raw(plain)))
    if traced:
        print("# untraced " + json.dumps(end_to_end(plain)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
