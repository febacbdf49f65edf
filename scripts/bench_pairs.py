#!/usr/bin/env python3
"""Paired benchmark comparison of two source trees.

    bench_pairs.py PARENT_TREE CHANGE_TREE [--pairs N] [--seed S]
                   [--workload W ...]
    bench_pairs.py --selftest

Runs the command that CHANGE_TREE's BENCHMARK.json declares, with
`--workload W --seed S` appended, in each tree (its working directory),
N pairs per workload (default 10; every workload of BENCHMARK.json
unless some are named).  The side that runs first alternates: the
parent in pairs 1, 3, ..., the change in pairs 2, 4, ....  From each
run it reads the `digest NAME HEX` line and the last line, the JSON
result.

Per workload and end-to-end metric it prints each side's median
[p25, p75], with quartiles as benchmark/run.ml computes them, the
pairs the change won (ties count for neither side), and a verdict:

  gain          the change won at least 9/10 of the pairs, and its
                median beats the parent's by more than the parent's
                interquartile range
  worse         the change's median is worse than the parent's by more
                than the metric's bound, a fraction of the parent's
                median
  unresolved    neither, and either side's interquartile range exceeds
                the bound (relative to that side's median), unless every
                run of the change beats every run of the parent
  within bound  otherwise

Exits 1 when a run fails (nonzero exit status, no JSON last line,
"correct" not true, or "failed" above 0) or when one side's digests
disagree with each other.  Digests that differ between the sides are
printed, not failed: a change may move a result on purpose.

--selftest checks the quartiles, each verdict, the alternation and
both failure exits over canned run outputs, using the metric list of
the BENCHMARK.json beside this script's directory.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys


def quartiles(xs):
    """(p25, median, p75) as benchmark/run.ml computes them: Python's
    statistics.quantiles(n=4) exclusive method, in run.ml's
    arithmetic; the one value for a single sample."""
    a = sorted(xs)
    n = len(a)

    def at(p):
        if n == 1:
            return a[0]
        m = p * (n + 1)
        j = max(1, min(n - 1, int(m)))
        return a[j - 1] + (a[j] - a[j - 1]) * (m - j)

    median = a[n // 2] if n % 2 == 1 else (a[n // 2 - 1] + a[n // 2]) / 2.0
    return at(0.25), median, at(0.75)


def relative(x, base):
    """x as a fraction of |base|; 0/0 is 0 and x/0 infinite."""
    if base != 0:
        return x / abs(base)
    return 0.0 if x == 0 else float("inf") if x > 0 else float("-inf")


def verdict(parent, change, better, bound):
    """(pairs won by the change, verdict) for one metric's paired runs."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(c, p):
        return sign * (p - c) > 0

    won = sum(1 for p, c in zip(parent, change) if beats(c, p))
    p25, pm, p75 = quartiles(parent)
    c25, cm, c75 = quartiles(change)
    if relative(sign * (cm - pm), pm) > bound:
        return won, "worse"
    if 10 * won >= 9 * len(parent) and sign * (pm - cm) > p75 - p25:
        return won, "gain"
    spread = max(relative(p75 - p25, pm), relative(c75 - c25, cm))
    all_beat = all(beats(c, p) for c in change for p in parent)
    if spread > bound and not all_beat:
        return won, "unresolved"
    return won, "within bound"


def parse_run(returncode, stdout):
    """(digest, metrics, error) of one run's output; error is None on a
    correct run."""
    lines = stdout.strip().splitlines()
    digest = None
    for line in lines:
        words = line.split()
        if len(words) == 3 and words[0] == "digest":
            digest = words[2]
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return digest, {}, f"exit {returncode}, no JSON result on the last line"
    if returncode != 0:
        return digest, metrics, f"exit {returncode}"
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        return digest, metrics, (
            f"correct {result.get('correct')}, failed {result.get('failed')} "
            f"of {result.get('attempted')}"
        )
    return digest, metrics, None


def shell_runner(command):
    def run(tree, workload, seed):
        print(f"running {workload} seed {seed} in {tree}", file=sys.stderr, flush=True)
        proc = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed)],
            cwd=tree,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        return proc.returncode, proc.stdout

    return run


def fmt(v):
    return f"{v:.6g}"


def summary(values):
    p25, med, p75 = quartiles(values)
    return f"{fmt(med)} [{fmt(p25)}, {fmt(p75)}]"


def compare(spec, trees, workloads, pairs, seed, run, out):
    """Run and report every workload's pairs; the exit status."""
    status = 0
    sides = ("parent", "change")
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i in range(pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                digest, metrics, error = parse_run(*run(trees[side], workload, seed))
                if error is not None:
                    print(f"{workload}: {side} run {i + 1} failed: {error}", file=out)
                    status = 1
                runs[side].append((digest, metrics))
        digests = {side: sorted({d for d, _ in runs[side]}, key=str) for side in sides}
        for side in sides:
            if len(digests[side]) != 1:
                print(f"{workload}: {side} digests disagree: {digests[side]}", file=out)
                status = 1
        same = digests["parent"] == digests["change"]
        print(
            f"== {workload}, seed {seed}, {pairs} pairs: digest "
            + (
                f"{digests['parent'][0]} on both sides"
                if same and len(digests["parent"]) == 1
                else f"parent {digests['parent']} change {digests['change']}"
            ),
            file=out,
        )
        print(
            f"  {'metric':<16} {'unit':<6} {'parent median [p25, p75]':<34} "
            f"{'change median [p25, p75]':<34} {'won':>6}  verdict",
            file=out,
        )
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {
                side: [ms[name] for _, ms in runs[side] if name in ms] for side in sides
            }
            if len(values["parent"]) != pairs or len(values["change"]) != pairs:
                print(f"  {name:<16} missing from some runs", file=out)
                status = 1
                continue
            won, v = verdict(values["parent"], values["change"], m["better"], m["bound"])
            print(
                f"  {name:<16} {m['unit']:<6} {summary(values['parent']):<34} "
                f"{summary(values['change']):<34} {f'{won}/{pairs}':>6}  {v}",
                file=out,
            )
        out.flush()
    return status


# Self-test


def canned_output(workload, metrics, digest="0123456789abcdef", correct=True, failed=0):
    result = {
        "correct": correct,
        "attempted": 5,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    return f"== {workload} (seed 1): canned\ndigest {workload} {digest}\n" + json.dumps(result) + "\n"


def selftest():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"]]
    checks = 0

    def check(cond, what):
        nonlocal checks
        checks += 1
        if not cond:
            sys.exit(f"bench_pairs selftest: {what}")

    # Quartiles: run.ml's arithmetic, Python's exclusive method.
    for xs in ([1.0, 2.0, 3.0, 4.0], [5.21, 3.2, 4.4, 6.0, 5.0], [2.0, 1.0]):
        p25, med, p75 = quartiles(xs)
        q = statistics.quantiles(xs, n=4)
        check(abs(p25 - q[0]) < 1e-12 and abs(p75 - q[2]) < 1e-12, f"quartiles of {xs}")
        check(med == statistics.median(xs), f"median of {xs}")
    check(quartiles([7.0]) == (7.0, 7.0, 7.0), "one sample")
    check(quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75), "quartiles of 1..4")

    # Verdicts, on a lower-is-better metric with bound 0.25.
    parent = [5.0 + 0.1 * i for i in range(10)]
    check(verdict(parent, [x - 1.0 for x in parent], "lower", 0.25) == (10, "gain"), "gain")
    check(verdict(parent, [x * 1.5 for x in parent], "lower", 0.25)[1] == "worse", "worse")
    check(
        verdict([x - 1.0 for x in parent], parent, "higher", 0.25)[1] == "gain",
        "higher is better",
    )
    # Faster in 8/10 only, or by less than the parent's spread: no gain.
    eight = [x - 1.0 if i < 8 else x + 0.01 for i, x in enumerate(parent)]
    check(verdict(parent, eight, "lower", 0.25) == (8, "within bound"), "8/10 is no gain")
    check(
        verdict(parent, [x - 0.01 for x in parent], "lower", 0.25) == (10, "within bound"),
        "a gap inside the parent's spread is no gain",
    )
    wide = [1.0, 3.0, 1.0, 3.0, 2.0, 1.0, 3.0, 2.0, 1.0, 3.0]
    check(verdict(wide, wide[::-1], "lower", 0.25)[1] == "unresolved", "unresolved")
    check(verdict([0.0] * 10, [0.0] * 10, "lower", 0.1) == (0, "within bound"), "exact zeros")
    check(verdict([0.0] * 10, [0.5] * 10, "lower", 0.1)[1] == "worse", "worse from zero")

    # A whole comparison over canned runs: the alternation, the table,
    # and each failure exit.
    def runner(outputs):
        calls = []

        def run(tree, workload, seed):
            calls.append(tree)
            return 0, outputs(tree, len([c for c in calls if c == tree]) - 1)

        return run, calls

    base = {n: 1.0 for n in names}
    trees = {"parent": "P", "change": "C"}

    def good(tree, i):
        ms = dict(base, pass_s=(5.0 if tree == "P" else 3.0) + 0.01 * i)
        return canned_output("w", ms)

    run, calls = runner(good)
    out = io.StringIO()
    check(compare(spec, trees, ["w"], 4, 1, run, out) == 0, "a good comparison exits 0")
    check(calls == ["P", "C", "C", "P", "P", "C", "C", "P"], f"alternation {calls}")
    text = out.getvalue()
    check("0123456789abcdef on both sides" in text, "digest line")
    check(any(l.split()[0] == "pass_s" and l.endswith("4/4  gain") for l in text.splitlines()[2:]),
          "pass_s gain row:\n" + text)

    for what, outputs in (
        ("an incorrect run", lambda t, i: canned_output("w", base, correct=(i != 2))),
        ("a failed check", lambda t, i: canned_output("w", base, failed=int(t == "C"))),
        ("a run with no JSON", lambda t, i: "digest w 0123\n" if i == 1 else canned_output("w", base)),
        ("one side's digests disagree",
         lambda t, i: canned_output("w", base, digest=f"{i:016x}" if t == "P" else "0" * 16)),
    ):
        run, _ = runner(outputs)
        check(compare(spec, trees, ["w"], 3, 1, run, io.StringIO()) == 1, f"{what} exits 1")
    run, _ = runner(lambda t, i: canned_output("w", base, digest=("a" if t == "P" else "b") * 16))
    out = io.StringIO()
    check(compare(spec, trees, ["w"], 2, 1, run, out) == 0, "sides may differ from each other")
    check("parent ['aaaaaaaaaaaaaaaa'] change ['bbbbbbbbbbbbbbbb']" in out.getvalue(), "both digests shown")
    print(f"bench_pairs selftest: {checks} checks passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return
    if args.parent is None or args.change is None:
        ap.error("PARENT_TREE and CHANGE_TREE are required")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    for w in args.workload:
        if w not in known:
            ap.error(f"unknown workload {w}; BENCHMARK.json has {', '.join(known)}")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sys.exit(
        compare(spec, trees, args.workload or known, args.pairs, args.seed,
                shell_runner(spec["command"]), sys.stdout)
    )


if __name__ == "__main__":
    main()
