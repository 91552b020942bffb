"""cylcolor benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census-nq --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

* ``census-nq``: ``cylcolor census --family stdin`` in fresh processes,
  at ``--jobs 1`` and ``--jobs 2``, over shards of the stored corpus of
  quad33 graphs with at most 10 vertices;
* ``exact-queries``: extendable sets and criticality, answered in process;
* ``cut-step``: the cutting step on a fixed pool of labelings, in process;
* ``enumerate-classify``: the quad33 and hexagon-disk generators, then
  recognition of a mixed corpus in a fresh interpreter.

With ``--trace 0`` a run repeats passes over the workload's fixed queries
until ``--seconds`` have elapsed (at least ``MIN_PASSES`` of them) and
reports the end-to-end metrics as medians over passes.  With ``--trace 1``
it runs the traced battery instead (one traced pass of every workload)
and reports the per-layer metrics.  Every answer is checked against the
stored reference.  The last line of stdout is one JSON object; the lines
before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median

from spans import Tracer, clock

WORKLOADS = ("census-nq", "exact-queries", "cut-step", "enumerate-classify")
MIN_PASSES = 3
# One set-up takes from a few ms to 0.9 s depending on the workload, too
# little to time once, and the machine's speed drifts over seconds.  So
# set-up is timed SETUP_REPEATS times before the passes and then again
# between passes, while its timed share of the run since the first pass is
# below SETUP_SHARE.  Its median then spans the run, as the passes' does.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def peak_rss_mb(children_only: bool) -> float:
    """Largest resident set (MiB) of this process or of any waited-for child."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not children_only:
        kib = max(kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib / 1024.0


def workload_api(w, name: str):
    """(setup, run one pass, named metrics of the passes) of a workload."""
    if name == "census-nq":

        def named(passes):
            return {
                f"census_j{j}_graphs_per_s": (
                    median(p.size / p.seconds[f"census_j{j}"] for p in passes),
                    "1/s",
                )
                for j in w.CENSUS_JOBS
            }

        return w.census_setup, w.census_pass, named
    if name in ("exact-queries", "cut-step"):
        kinds = ("extendset", "critical") if name == "exact-queries" else ("cut_step",)

        def named(passes):
            return {f"{kind}_s": (median(p.seconds[kind] for p in passes), "s") for kind in kinds}

        setup = w.exact_setup if name == "exact-queries" else w.cut_setup
        return setup, w.query_pass, named

    def named(passes):
        return {
            "gen_classes_per_s": (median(p.size / p.seconds["generate"] for p in passes), "1/s"),
            "classify_s": (median(p.seconds["classify"] for p in passes), "s"),
        }

    return w.classify_setup, w.classify_pass, named


def measure(w, name: str, seed: int, seconds: float, run) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the full report."""
    setup, one_pass, named = workload_api(w, name)
    setup_s: list[float] = []

    def timed_setup():
        t0 = clock()
        out = setup(seed)
        setup_s.append(clock() - t0)
        return out

    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous inputs before building the next
        inputs = timed_setup()

    report: dict = {}
    if name == "exact-queries":
        ok, known, note = w.grid_probe(inputs["grid"])
        report["defect_probe"] = {"ok": ok, "known_defect": known, "note": note}
        if not known:
            run.op(ok, note)

    # Passes come in rounds that cover the cut-step pool once, so that every
    # run's median is taken over the same mix of labelings.
    round_len = w.CUT_POOL if name == "cut-step" else 1
    tracer = Tracer()  # request spans only; nothing is wrapped
    passes = []
    t_start = clock()
    setup_before = sum(setup_s)
    while True:
        res = one_pass(inputs, len(passes), tracer)
        passes.append(res)
        run.add(res)
        while sum(setup_s) - setup_before < SETUP_SHARE * (clock() - t_start):
            timed_setup()
        n = len(passes)
        elapsed = clock() - t_start
        if n >= MIN_PASSES and n % round_len == 0 and elapsed * (n + round_len) / n > seconds:
            break

    pass_s = [sum(p.seconds.values()) for p in passes]
    metrics = {
        "pass_s": (median(pass_s), "s"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(children_only=name == "census-nq"), "MiB"),
    }
    shares: Counter = Counter()
    for p in passes:
        shares.update(p.shares)
    known = int(report.get("defect_probe", {}).get("known_defect", False))
    named_metrics = named(passes)
    named_metrics["error_rate"] = ((run.failed + known) / (run.attempted + known), "ratio")
    report.update(
        {
            "passes": len(passes),
            "setups": len(setup_s),
            "pass_seconds": [p.seconds for p in passes],
            "named_metrics": named_metrics,
            "shares": dict(shares),
        }
    )
    return metrics, report


def traced_battery(w, name: str, seed: int, run) -> tuple[dict, dict]:
    """One traced pass of every workload; per-layer metrics from the spans."""
    inputs = {
        "census-nq": w.census_setup(seed),
        "exact-queries": w.exact_setup(seed),
        "cut-step": w.cut_setup(seed),
        "enumerate-classify": w.classify_setup(seed),
    }

    def portion(workload: str, tracer, traced: bool):
        if workload == "census-nq":
            return w.census_replay(inputs[workload], 0, tracer)
        if workload in ("exact-queries", "cut-step"):
            return w.query_pass(inputs[workload], 0, tracer)
        return w.classify_pass(inputs[workload], 0, tracer, trace=traced)

    t0 = clock()
    run.add(portion(name, Tracer(), traced=False))
    plain_s = clock() - t0

    tr = Tracer()
    w.install(tr)
    try:
        t0 = clock()
        results = {name: portion(name, tr, traced=True)}
        traced_s = clock() - t0
        for other in WORKLOADS:
            if other != name:
                results[other] = portion(other, tr, traced=True)
    finally:
        tr.restore()
    for res in results.values():
        run.add(res)
    for _ in range(3):
        tr.new_request()
        with tr.span("cli.startup"):
            _, proc = w.run_child(w.census_args(1), "")
        run.op(proc.returncode == 0, f"empty census exited {proc.returncode}")

    census = results["census-nq"].shares  # of the replayed records
    startups = [s[2] - s[1] for s in tr.spans if s[0] == "cli.startup"]
    solves = tr.leaf_calls.get("coloring.solve", 0)
    layer_self = tr.layer_self()
    c = tr.counts
    m = {
        "cli.startup_s": (median(startups), "s"),
        "cli.catalog_warm_s": (tr.first("analysis.framed_patched_catalog"), "s"),
        "embedding.parse.calls": (tr.calls("embedding.parse"), "count"),
        "embedding.parse.busy_s": (tr.busy("embedding.parse"), "s"),
        "embedding.is_tame.busy_s": (tr.busy("embedding.is_tame"), "s"),
        "embedding.graphs_built": (tr.leaf_calls.get("embedding.construct", 0), "count"),
        "canon.calls": (tr.leaf_calls.get("canon.canonical_form", 0), "count"),
        "canon.busy_s": (tr.leaf_s.get("canon.canonical_form", 0.0), "s"),
        "coloring.extendset.calls": (tr.calls("coloring.extendable_set"), "count"),
        "coloring.extendset.busy_s": (tr.busy("coloring.extendable_set"), "s"),
        "coloring.precolorings_tried": (solves, "count"),
        "coloring.extend_ratio": (c["coloring.solve.extends"] / max(solves, 1), "ratio"),
        "coloring.dominates_under.busy_s": (tr.busy("coloring.dominates_under"), "s"),
        "analysis.is_critical.calls": (tr.calls("analysis.is_critical"), "count"),
        "analysis.is_critical.busy_s": (tr.busy("analysis.is_critical"), "s"),
        "analysis.critical_share": (census["critical"] / census["graphs"], "ratio"),
        "analysis.recognize.calls": (tr.calls("analysis.recognize"), "count"),
        "analysis.recognize.busy_s": (tr.busy("analysis.recognize"), "s"),
        "analysis.recognize.first_s": (
            tr.first("analysis.recognize", under="bench.classify_worker"),
            "s",
        ),
        "analysis.face_deficiency.busy_s": (tr.busy("analysis.face_deficiency"), "s"),
        "surgery.chain_decompose.calls": (tr.calls("surgery.chain_decompose"), "count"),
        "surgery.chain_decompose.busy_s": (tr.busy("surgery.chain_decompose"), "s"),
        "surgery.chain_share": (census["chain"] / census["graphs"], "ratio"),
        "surgery.cut_step.busy_s": (tr.busy("surgery.cut_step"), "s"),
        "surgery.cut_step.self_s": (tr.self_time("surgery.cut_step"), "s"),
        "families.generate_quad33.busy_s": (tr.busy("families.generate_quad33"), "s"),
        "families.generate_quad33.classes": (c["families.generate_quad33.classes"], "count"),
        "families.hexagon_disks.busy_s": (tr.busy("families.generate_hexagon_disks"), "s"),
        "families.hexagon_disks.classes": (c["families.hexagon_disks.classes"], "count"),
        "families.enumerate_framed_patched.busy_s": (tr.busy("families.enumerate_framed_patched"), "s"),
        "families.framed_unique_ratio": (
            c["analysis.framed_patched_catalog.classes"]
            / max(c["families.enumerate_framed_patched.items"], 1),
            "ratio",
        ),
    }
    for layer in ("cli", "analysis", "coloring", "embedding", "canon", "families", "surgery"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.spans"] = (len(tr.spans), "count")

    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"spans-{name}.json")
    report = {
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "shares": {k: r.shares for k, r in results.items()},
    }
    return m, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cylcolor benchmark (one run)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import workloads as w
    except ImportError as exc:
        print(f"error: cannot load the library from this checkout: {exc}", file=sys.stderr)
        return 2

    run = w.PassResult()  # operation totals of the whole run
    if args.trace:
        metrics, report = traced_battery(w, args.workload, args.seed, run)
    else:
        metrics, report = measure(w, args.workload, args.seed, args.seconds, run)

    report.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": run.attempted,
            "failed": run.failed,
            "notes": run.notes,
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="ascii") as fh:
        json.dump({"metrics": metrics, **report}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in run.notes:
        print(f"note: {note}")
    for key, value in report.get("shares", {}).items():
        if value:
            print(f"share {key}: {value}")
    if "defect_probe" in report:
        print(f"defect probe: {report['defect_probe']['note']}")
    for key, (value, unit) in {**report.get("named_metrics", {}), **metrics}.items():
        print(f"{key} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
