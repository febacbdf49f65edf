#!/usr/bin/env python3
"""Bench-lane helper: merge the lanes' headline JSON files into one and
hold it against the committed baseline with one table of rules.

  merge FL MI -o OUT        merge the `--json` outputs of the lanes
                            fleet and micro
  check PR BASELINE         one Markdown row per rule in RULES; exit 1
                            if any fails.  --explain DIFF.json (from
                            `offload-cli diff OLD NEW --json`) names the
                            top-3 span-tree nodes behind a failure
  selftest BASELINE         every rule fails on a value past each bound
                            and on its key missing from either file, an
                            identical copy passes, and a broken artifact
                            gives load()'s named error

A rule holds the value PR of a key (LANE.FIELD) against its value BASE
in the baseline.  A ruled key missing from either file fails.

  exact           PR == BASE, booleans and hashes too
  rel TOL         fails when PR / BASE lies outside [1-TOL, 1+TOL]; an
                  improvement past the band means a stale baseline.
                  Simulated numbers are deterministic, so the band
                  only absorbs intentional changes
  floor FRAC ABS  fails when PR < max(FRAC * BASE, ABS); for wall-clock
                  numbers, which depend on the machine
  above X         fails unless PR > X

Re-baselining: when a change moves a number past its rule on purpose,
regenerate the baseline at the same reduced scale and commit it with
the change:

    dune exec bench/main.exe -- fleet --sample 0.01 --json /tmp/fl.json
    dune exec bench/main.exe -- micro --trials 3 --json /tmp/mi.json
    python3 scripts/bench_guard.py merge /tmp/fl.json /tmp/mi.json \\
        -o BENCH_baseline.json
"""

import argparse
import copy
import json
import os
import sys
import tempfile

SCHEMA = 6
LANES = ("fleet", "micro")

EXACT = ("exact",)
REL = ("rel", 0.10)

RULES = [
    ("schema", EXACT),
    ("micro.micro_sim_events", EXACT),
    ("micro.micro_allocs_per_event_w", REL),
    ("micro.micro_compress_ratio", REL),
    # Wall-clock rates: an exact halving falls below 0.55 x baseline,
    # and the absolute floor is a backstop even a slow machine clears.
    ("micro.micro_events_per_sec", ("floor", 0.55, 100.0)),
    ("micro.micro_compress_bytes_per_sec", ("floor", 0.55, 1e6)),
    # Sampled over full-capture events/sec: sampling costs under 10 %.
    ("fleet.fleet_sample_vs_full_ratio", ("floor", 0.0, 0.9)),
] + [
    (f"fleet.fleet_{policy}_{field}", rule)
    for policy in ("rr", "ll", "sticky")
    for field, rule in (
        ("geomean", REL),
        ("throughput", REL),
        # The saturated sweep is judged against an availability floor
        # that passes at baseline scale, so a flip either way is news.
        ("slo_pass", EXACT),
        # Keep decisions are seeded: the kept set is exact, and never
        # empty, since every faulted task is kept.
        ("kept_hash", EXACT),
        ("sampled_kept", EXACT),
        ("sampled_kept", ("above", 0)),
        # Host-side clients/sec is wall-clock: an absolute floor only.
        ("clients_per_sec", ("floor", 0.0, 50.0)),
    )
]


def load(path):
    """Read one headline JSON artifact.

    A missing, unreadable, empty or truncated file exits with a named
    actionable message instead of a traceback: on CI these mean the
    bench step that writes the artifact crashed or was cancelled, and
    the fix is to re-run that step, not to debug this script.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        sys.exit(
            f"bench_guard: cannot read {path}: "
            f"{exc.strerror or exc}; re-run the bench step that "
            "writes this artifact"
        )
    if not text.strip():
        sys.exit(
            f"bench_guard: {path} is empty; the bench step that "
            "writes it was interrupted before producing output — "
            "re-run it"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        sys.exit(
            f"bench_guard: {path} is not valid JSON ({exc}); the "
            "artifact is likely truncated — re-run the bench step "
            "that writes it"
        )


def cmd_merge(args):
    merged = {"schema": SCHEMA}
    for lane in LANES:
        merged[lane] = load(getattr(args, lane))
    for lane in LANES:
        mode = merged[lane].get("mode")
        if mode != lane:
            sys.exit(f"bench_guard: expected mode={lane!r}, got {mode!r}")
    with open(args.output, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")


def label(rule):
    kind, *bounds = rule
    return " ".join([kind] + [f"{bound:g}" for bound in bounds])


def lookup(blob, key):
    """The value at dotted KEY, or None when any part is missing."""
    for part in key.split("."):
        blob = blob.get(part) if isinstance(blob, dict) else None
    return blob


def violation(rule, pr, base):
    """Why PR breaks RULE against BASE, or None when it holds.  The rel
    test is not `abs(ratio - 1) > tol`: that form judges some values on
    the band's edge differently."""
    kind, *bounds = rule
    if kind == "exact":
        if pr != base:
            return f"baseline is {json.dumps(base)}"
    elif kind == "rel":
        (tol,) = bounds
        ratio = pr / base
        if ratio < 1.0 - tol or ratio > 1.0 + tol:
            stale = "; re-baseline if intended" if ratio > 1.0 else ""
            return f"{ratio:.3f}x baseline {base:g}, outside 1±{tol:g}{stale}"
    elif kind == "floor":
        frac, least = bounds
        floor = max(frac * base, least)
        if pr < floor:
            return f"below floor {floor:g}"
    elif pr <= bounds[0]:
        return f"not above {bounds[0]:g}"
    return None


def check(pr, baseline):
    """One (key, rule, PR value, failure or None) row per rule."""
    rows = []
    for key, rule in RULES:
        value, base = lookup(pr, key), lookup(baseline, key)
        if value is None or base is None:
            why = "missing from " + ("PR" if value is None else "baseline")
        else:
            why = violation(rule, value, base)
        rows.append((key, rule, value, why))
    return rows


def seconds(value, spec=".4f"):
    """A diff-JSON time; the differ writes a non-finite one as null."""
    return "null" if value is None else format(value, spec) + "s"


def explain(path, top=3):
    """Summarise a trace-diff JSON (`offload-cli diff OLD NEW --json`)
    as attribution lines: where did the extra time go?"""
    report = load(path)
    lines = [
        "attribution (from {}: wall {} -> {}, delta {}):".format(
            path,
            seconds(report.get("wall_a_s", 0.0)),
            seconds(report.get("wall_b_s", 0.0)),
            seconds(report.get("delta_s", 0.0), "+.4f"),
        )
    ]
    nodes = sorted(
        report.get("nodes", []),
        key=lambda n: abs(n.get("self_delta_s") or 0.0),
        reverse=True,
    )
    for node in nodes[:top]:
        delta = seconds(node.get("self_delta_s", 0.0), "+.4f")
        lines.append(f"  {node.get('path', '?')}: self {delta}")
    if not nodes:
        lines.append("  (diff report carries no node rows)")
    return lines


def cmd_check(args):
    rows = check(load(args.pr), load(args.baseline))
    print("| key | rule | PR | verdict |")
    print("| --- | --- | --- | --- |")
    for key, rule, value, why in rows:
        verdict = "ok" if why is None else f"FAIL: {why}"
        print(f"| {key} | {label(rule)} | {json.dumps(value)} | {verdict} |")
    failed = sum(why is not None for *_, why in rows)
    if failed:
        if args.explain:
            print()
            for line in explain(args.explain):
                print(line)
        sys.exit(f"bench_guard: {failed} of {len(rows)} rules failed")


def selftest_loader():
    """Prove load() turns broken artifacts into the named error."""
    with tempfile.TemporaryDirectory(prefix="bench_guard_selftest.") as tmpdir:
        for name, text, named in (
            ("missing.json", None, "cannot read"),
            ("empty.json", "", "is empty"),
            (
                "truncated.json",
                '{"micro": {"micro_compress_ratio": 0.',
                "is not valid JSON",
            ),
        ):
            path = os.path.join(tmpdir, name)
            if text is not None:
                with open(path, "w") as fh:
                    fh.write(text)
            try:
                load(path)
            except SystemExit as exc:
                if named not in str(exc):
                    sys.exit(f"selftest: {name} gave {str(exc)!r}, not the named error")
            else:
                sys.exit(f"selftest: {name} was not caught")


def breaking(rule, base):
    """Values RULE must reject against BASE: one past each bound."""
    kind, *bounds = rule
    if kind == "exact":
        if isinstance(base, bool):
            return [not base]
        return [base + ("x" if isinstance(base, str) else 1)]
    if kind == "rel":
        return [base * (1.0 - 2 * bounds[0]), base * (1.0 + 2 * bounds[0])]
    if kind == "floor":
        return [max(bounds[0] * base, bounds[1]) / 2]
    return [bounds[0]]  # above: the bound itself, which is excluded


def cmd_selftest(args):
    baseline = load(args.baseline)
    selftest_loader()
    if any(why is not None for *_, why in check(baseline, copy.deepcopy(baseline))):
        sys.exit("selftest: an identical copy should pass but failed")
    for index, (key, rule) in enumerate(RULES):
        lane, _, field = key.rpartition(".")
        cases = [(0, value) for value in breaking(rule, lookup(baseline, key))]
        cases += [(0, None), (1, None)]  # the key deleted from PR, baseline
        for side, value in cases:
            pair = [copy.deepcopy(baseline), copy.deepcopy(baseline)]
            holder = pair[side][lane] if lane else pair[side]
            if value is None:
                del holder[field]
            else:
                holder[field] = value
            why = check(*pair)[index][3]
            missing = "missing from " + ("PR", "baseline")[side]
            if why is None or value is None and why != missing:
                case = missing if value is None else f"PR value {value!r}"
                sys.exit(f"selftest: {case} for {key} ({label(rule)}) gave {why!r}")
    print(
        f"selftest OK: each of {len(RULES)} rules fails past each bound and "
        "on its key missing from either file; an identical copy passes; "
        "broken artifacts yield the named bench_guard error"
    )


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", help="combine headline JSONs")
    for lane in LANES:
        p.add_argument(lane)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("check", help="hold PR numbers to the baseline's rules")
    p.add_argument("pr")
    p.add_argument("baseline")
    p.add_argument(
        "--explain",
        metavar="DIFF_JSON",
        help="trace-diff JSON to attribute a failure with",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("selftest", help="prove every rule fires")
    p.add_argument("baseline")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
