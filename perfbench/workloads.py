"""The benchmark's workloads: how each makes its inputs, drives the package
and checks the answers.

Each workload has three steps. ``make(seed)`` builds plain-tuple inputs from
the reference code alone. ``run(om, inputs)`` is the timed phase: it drives
the package only through public names looked up at call time (so a tracer
that rebinds them sees every call) and returns one output per item, or the
exception an item raised. ``check(inputs, outputs)`` recomputes every answer
with the reference code and returns (attempted, failed) item counts.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random

import reference as ref

# Sizes are chosen so that one cold round takes about a second on a 2-core
# x86 box at the commit that introduced the benchmark.
VERIFY_MAX_N = 17
MAP_SIZES = range(40, 64, 3)
MAP_PER_STRATUM = 2
CLASSIFY_SIZES = range(14, 21)
ENUMERATE_SIZES = (48, 49)


def _quietly(main, argv):
    """Run a CLI entry point, returning (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _each(calls):
    """Evaluate every thunk, keeping an item's exception as its output."""
    out = []
    for call in calls:
        try:
            out.append(call())
        except Exception as exc:  # an item that raises counts as failed
            out.append(exc)
    return out


# verify: the shipped oracle cross-check, exhaustive over n <= VERIFY_MAX_N.

def verify_make(seed):
    return {"max_n": VERIFY_MAX_N}


def verify_run(om, inputs):
    argv = ["verify", "--max-n", str(inputs["max_n"]), "--jobs", "1", "--format", "json"]
    return _each([lambda: _quietly(om.cli.main, argv)])


def verify_check(inputs, outputs):
    expected = ref.verify_checks(inputs["max_n"])
    (out,) = outputs
    if isinstance(out, Exception):
        return expected, expected
    code, text = out
    report = json.loads(text)["report"]
    if code != 0 or report["checks_run"] != expected:
        return expected, expected
    return expected, len(report["mismatches"])


# map_sample: one map call per uniformly random odd partition of a large n,
# a fixed number per (n, k) stratum, so calls share almost no work.

def map_sample_make(seed):
    rng = random.Random(seed)
    items = [
        (ref.random_odd_partition(rng, n), k)
        for n in MAP_SIZES
        for k in range(n.bit_length())
        for _ in range(MAP_PER_STRATUM)
    ]
    rng.shuffle(items)
    return items


def map_sample_run(om, inputs):
    P = om.Partition
    args = [(P(lam), k) for lam, k in inputs]
    return _each([lambda a=a: om.remove_odd_hook(*a).parts for a in args])


def map_sample_check(inputs, outputs):
    failed = sum(
        1 for (lam, k), got in zip(inputs, outputs) if got != ref.remove_odd_hook(lam, k)
    )
    return len(inputs), failed


# classify: seeded classification queries over small n with heavy reuse of
# the map.

def _commute_pairs(n):
    return [
        (k, l)
        for l in range(1, n.bit_length())
        for k in range(l)
        if (1 << k) + (1 << l) <= n
    ]


def classify_make(seed):
    # One query per (kind, n, k) or (kind, n, k, l) stratum: the seed picks
    # mu for fibers and the order, so the reuse each round sees, and thus its
    # cost, barely depends on the seed.
    rng = random.Random(seed)
    queries = []
    for n in CLASSIFY_SIZES:
        for k in range(n.bit_length()):
            if (1 << k) < n:
                queries.append(("fiber", n, k, ref.random_odd_partition(rng, n - (1 << k))))
                queries.append(("image", n, k))
                queries.append(("surjective", n, k))
        for k, l in _commute_pairs(n):
            queries.append(("commute", n, k, l))
            if not ref.predicted_commute(n, k, l):
                queries.append(("witness", n, k, l))
    rng.shuffle(queries)
    return queries


def _classify_call(om, q):
    kind, n = q[0], q[1]
    if kind == "fiber":
        mu = om.Partition(q[3])
        members = om.fiber(mu, n, q[2]).members
        return [m.parts for m in members], om.fiber_size_formula(mu, n, q[2])
    if kind == "image":
        return [m.parts for m in om.image_misses(n, q[2])], om.is_surjective(n, q[2])
    if kind == "surjective":
        return om.is_surjective(n, q[2], verify=True)
    inst = om.CommuteInstance(n, q[2], q[3])
    if kind == "commute":
        verdict = om.commute_verdict(inst)
        witness = verdict.witness.parts if verdict.witness is not None else None
        return verdict.commutes, witness, om.predicted_commute(inst)
    return om.counterexample_witness(inst).parts


def classify_run(om, inputs):
    return _each([lambda q=q: _classify_call(om, q) for q in inputs])


def classify_check(inputs, outputs):
    # Queries share levels, so the reference enumerations and map values are
    # memoised for the length of one check.
    odd = functools.lru_cache(maxsize=None)(ref.all_odd_partitions)
    slide = functools.lru_cache(maxsize=None)(ref.remove_odd_hook)

    def misses(n, k):
        image = {slide(lam, k) for lam in odd(n)}
        return [mu for mu in odd(n - (1 << k)) if mu not in image]

    def expected(q):
        kind, n = q[0], q[1]
        if kind == "fiber":
            members = [lam for lam in odd(n) if slide(lam, q[2]) == q[3]]
            return members, len(members)
        if kind == "image":
            missed = misses(n, q[2])
            return missed, not missed
        if kind == "surjective":
            return not misses(n, q[2])
        k, l = q[2], q[3]
        cex = [lam for lam in odd(n) if slide(slide(lam, l), k) != slide(slide(lam, k), l)]
        if kind == "commute":
            return not cex, cex[0] if cex else None, not cex
        return cex

    failed = 0
    for q, got in zip(inputs, outputs):
        want = expected(q)
        failed += not (got in want if q[0] == "witness" else got == want)
    return len(inputs), failed


# enumerate: `oddmaps odd-list` for large n; never calls the oddness test or
# the map, so it is the no-change control for those kernels.

def enumerate_make(seed):
    return list(ENUMERATE_SIZES)


def enumerate_run(om, inputs):
    return _each(
        [lambda n=n: _quietly(om.cli.main, ["odd-list", "--n", str(n), "--format", "json"]) for n in inputs]
    )


def enumerate_check(inputs, outputs):
    attempted = failed = 0
    for n, out in zip(inputs, outputs):
        expected = ref.odd_count(n)
        attempted += expected
        if isinstance(out, Exception) or out[0] != 0:
            failed += expected
            continue
        members = [tuple(m) for m in json.loads(out[1])["members"]]
        good = {
            m for m in members if sum(m) == n and list(m) == sorted(m, reverse=True) and ref.is_odd_degree(m)
        }
        if len(members) != expected or len(set(members)) != len(members):
            failed += expected
        else:
            failed += expected - len(good)
    return attempted, failed


WORKLOADS = {
    "verify": (verify_make, verify_run, verify_check),
    "map_sample": (map_sample_make, map_sample_run, map_sample_check),
    "classify": (classify_make, classify_run, classify_check),
    "enumerate": (enumerate_make, enumerate_run, enumerate_check),
}
