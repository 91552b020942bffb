"""Inputs, correctness checks and timed passes of the three workloads.

Every workload is a closed loop with one client: the next query is sent
only after the previous answer arrived, because every caller of cylcolor
waits for an exact answer.  A *pass* answers the workload's fixed set of
queries once; ``run.py`` repeats passes and reports medians.

All inputs go through a seeded vertex relabeling (``embedding.relabel``);
the library only ever sees relabeled graphs.  No answer depends on
labels, so the stored reference answers hold for every seed, but run
times do, so each pass ``k`` uses its own labeling drawn from the seed.

The cylcolor package is imported from ``src/`` of the checkout that holds
this directory, never from anywhere else.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TEST_FIXTURES = HERE.parent / "tests" / "fixtures.py"
DATA = HERE / "data"
REFERENCE = HERE / "reference.json"
CENSUS_CORPUS = DATA / "quad33_le10.emg"
CENSUS_REPORT = DATA / "census_report.txt"
CLASSIFY_CORPUS = DATA / "classify_corpus.emg"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import cylcolor  # noqa: E402

if Path(cylcolor.__file__).resolve().parent != SRC / "cylcolor":
    raise ImportError(f"cylcolor was not imported from {SRC}")

from cylcolor import analysis, coloring, embedding, families, surgery  # noqa: E402
from cylcolor.errors import CatalogTooSmall, CylColorError  # noqa: E402

from spans import Tracer, clock  # noqa: E402


def _load_fixtures():
    """The test suite's hand-built maps, loaded by path.

    Loaded by path because ``tests`` is also the name of this benchmark's
    own test directory.
    """
    spec = importlib.util.spec_from_file_location("cylcolor_test_fixtures", TEST_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


penta_tube = _load_fixtures().penta_tube

# Unwrapped, for checking answers outside the traced spans.
_canonical_form = analysis.canonical_form

# -- sizes ---------------------------------------------------------------
# On a shared two-CPU machine one call's time varies by about 13 %, so a
# run needs many short passes rather than a few long ones: each pass here
# takes a few seconds.  README.md lists where these sizes are smaller than the
# acceptance battery's.

# Recognition catalog used by census and classification.  At the default
# (20, 4) one cold build takes about 20 s, longer than a whole run.  At
# (16, 2) it takes about 0.4 s, and verdicts stay conclusive up to
# min(16, 12 + 2) = 14 vertices.
CATALOG_BOUND = 16
PATCH_BOUND = 2
CENSUS_SHARDS = 16
CENSUS_JOBS = (1, 2)
EXTENDSET_LINKS = range(2, 12)
CRITICAL_LINKS = range(3, 7)
CRITICAL_FRAMED_LINKS = range(1, 4)
TUBE_LAYERS = 6  # 36 vertices, ring distance 7
TUBE_GUARD = 40
CUT_D0 = 3
GRID = (40, 40)
GEN_QUAD_BOUND = 9
GEN_HEX_BOUND = 4
LABELINGS = 6  # distinct labelings per run; pass k uses k % LABELINGS
# The cutting step's run time depends strongly on the labeling (6.6 s to
# 17 s over seeds 1 to 8 at the commit that added this benchmark), and a
# run affords only three of them.  So the cut-step workload takes its
# labelings from a fixed pool of three, the same for every seed: pass k
# uses pool member k % CUT_POOL, and every run covers the whole pool.
CUT_POOL = 3
CUT_POOL_SEED = "cut-pool"
SUBPROCESS_TIMEOUT_S = 150

VERDICT_CODE = {"near_quad33": "N", "framed_patched_tw": "F", "neither": "X"}
CENSUS_VERDICT = {"near_quad33": "NQ", "framed_patched_tw": "FPTW", "neither": "NEITHER"}


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def relabeled(g, seed, tag: str):
    """The graph under a permutation drawn from (seed, tag), and the permutation."""
    perm = list(range(g.n))
    random.Random(f"{seed}/{tag}").shuffle(perm)
    return embedding.relabel(g, perm), perm


def run_child(args: list[str], stdin: str) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; returns (wall seconds, result)."""
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return clock() - t0, proc


@dataclass
class PassResult:
    """Timings of one pass (or totals of a run), with its operation counts."""

    seconds: dict[str, float] = field(default_factory=dict)
    size: int = 0  # graphs censused or classes generated
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    shares: dict[str, int] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def add(self, other: "PassResult") -> None:
        """Count another result's operations in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes


def members_digest(es, perm) -> str:
    """Digest of extendable ring precolorings in the original labels."""
    inv = {new: old for old, new in enumerate(perm)}
    old_domain = sorted(inv[v] for v in es.ring_domain)
    out = []
    for member in es.members:
        by_old = {inv[v]: c for v, c in zip(es.ring_domain, member)}
        out.append(tuple(by_old[v] for v in old_domain))
    return hashlib.sha256(repr(sorted(out)).encode("ascii")).hexdigest()[:16]


def canon_hash(g) -> str:
    return hashlib.sha256(_canonical_form(g)).hexdigest()[:16]


def install(tracer: Tracer) -> None:
    """Wrap the module attributes at each layer boundary (traced run only).

    Names imported into another module are wrapped there too, so that
    calls between layers are seen.  ``tracer.restore()`` undoes all of it.
    """
    from cylcolor import _canon

    count = tracer.counts

    def catalog_seen(catalog):  # every call returns the same cached catalog
        key = "analysis.framed_patched_catalog.classes"
        count[key] = max(count[key], len(catalog))

    def solve_seen(solution):
        count["coloring.solve.extends"] += solution is not None

    def classes_seen(key):
        def seen(classes):
            count[key] = len(classes)

        return seen

    tracer.wrap(analysis, "is_critical", "analysis.is_critical")
    tracer.wrap(analysis, "recognize", "analysis.recognize")
    tracer.wrap(analysis, "face_deficiency", "analysis.face_deficiency")
    tracer.wrap(analysis, "framed_patched_catalog", "analysis.framed_patched_catalog", catalog_seen)
    tracer.wrap_generator(analysis, "enumerate_framed_patched", "families.enumerate_framed_patched")
    for mod in (analysis, families):
        tracer.wrap(mod, "near_quad33_decomposition", "families.near_quad33_decomposition")
    tracer.wrap(
        families, "generate_quad33", "families.generate_quad33",
        classes_seen("families.generate_quad33.classes"),
    )
    tracer.wrap(
        families, "generate_hexagon_disks", "families.generate_hexagon_disks",
        classes_seen("families.hexagon_disks.classes"),
    )
    tracer.wrap(surgery, "chain_decompose", "surgery.chain_decompose")
    tracer.wrap(surgery, "cut_step", "surgery.cut_step")
    tracer.wrap(coloring, "extendable_set", "coloring.extendable_set")
    tracer.wrap(coloring, "dominates_under", "coloring.dominates_under")
    tracer.wrap(embedding, "parse_emg", "embedding.parse")
    tracer.wrap(embedding, "is_tame", "embedding.is_tame")
    for mod in (coloring, analysis, surgery):
        tracer.wrap_leaf(mod, "_solve_first", "coloring.solve", solve_seen)
    for mod in (_canon, analysis, families):
        tracer.wrap_leaf(mod, "canonical_form", "canon.canonical_form")
    tracer.wrap_leaf(embedding.EmbeddedGraph, "__post_init__", "embedding.construct")


# ---------------------------------------------------------------------------
# census-nq
# ---------------------------------------------------------------------------


@dataclass
class CensusShard:
    text: str  # EMG stream of the relabeled graphs
    expected: str  # census report the CLI must print
    graphs: int


def census_setup(seed: int) -> list[CensusShard]:
    """Split the stored corpus into shards of the same mix.

    Each shard gets the same share of critical graphs and of each vertex
    count: a critical graph costs the census far more than another, and
    shards that differ in it would differ in time for no code reason.
    """
    text = CENSUS_CORPUS.read_text(encoding="ascii")
    canons = [ln[len("# canon="):] for ln in text.splitlines() if ln.startswith("# canon=")]
    graphs = embedding.parse_emg_stream(text)
    ref = {}
    for line in CENSUS_REPORT.read_text(encoding="ascii").splitlines():
        ref[line.split()[0][len("canon="):]] = line
    critical = [" critical=1 " in ref[c] for c in canons]
    rng = random.Random(f"{seed}/census-shards")
    order = sorted(
        range(len(graphs)), key=lambda i: (critical[i], graphs[i].n, rng.random())
    )
    shards = []
    for k in range(CENSUS_SHARDS):
        members = order[k::CENSUS_SHARDS]
        rng.shuffle(members)
        body = "".join(
            embedding.emit_emg(relabeled(graphs[i], seed, f"census/{i}")[0])
            for i in members
        )
        expected = "\n".join(sorted(ref[canons[i]] for i in members)) + "\n"
        shards.append(CensusShard(body, expected, len(members)))
    return shards


def census_args(jobs: int) -> list[str]:
    return [
        "-m", "cylcolor.cli", "census", "--family", "stdin", "--jobs", str(jobs),
        "--catalog-bound", str(CATALOG_BOUND), "--patch-bound", str(PATCH_BOUND),
    ]


def census_pass(shards: list[CensusShard], k: int, tracer: Tracer) -> PassResult:
    shard = shards[k % len(shards)]
    res = PassResult(size=shard.graphs)
    for jobs in CENSUS_JOBS:
        tracer.new_request()
        with tracer.span("bench.census_call"):
            dt, proc = run_child(census_args(jobs), shard.text)
        ok = proc.returncode == 0 and proc.stdout == shard.expected
        res.op(
            ok,
            f"census --jobs {jobs} on shard {k % len(shards)}: exit {proc.returncode}, "
            f"stderr {proc.stderr[-200:]!r}",
        )
        res.seconds[f"census_j{jobs}"] = dt
    res.shares = census_shares(shard.expected.splitlines())
    return res


def census_shares(lines: list[str]) -> dict[str, int]:
    """How many census records are critical, and how many have a chain."""
    return {
        "graphs": len(lines),
        "critical": sum(" critical=1 " in ln for ln in lines),
        "chain": sum(not ln.endswith(" chain=0") for ln in lines),
    }


def census_record(g) -> str:
    """One census line through the same public calls as ``_census_one``."""
    canon = hashlib.sha256(analysis.canonical_form(g)).hexdigest()[:16]
    tame = embedding.is_tame(g)
    critical = analysis.is_critical(g).is_critical
    try:
        verdict = CENSUS_VERDICT[
            analysis.recognize(g, CATALOG_BOUND, PATCH_BOUND).verdict
        ]
    except CatalogTooSmall:
        verdict = "UNKNOWN"
    def_int = analysis.face_deficiency(g).deficiency_internal
    chain_n = 0
    if tame and len(g.rings) == 2 and all(len(r) <= 4 for r in g.rings):
        try:
            chain_n = surgery.chain_decompose(g).n
        except CylColorError:
            chain_n = 0
    return (
        f"canon={canon} tame={int(tame)} critical={int(critical)} "
        f"verdict={verdict} def_int={def_int} chain={chain_n}"
    )


def census_replay(shards: list[CensusShard], k: int, tracer) -> PassResult:
    """Replay one shard record by record, in process (traced run)."""
    shard = shards[k % len(shards)]
    res = PassResult(size=shard.graphs)
    expected = set(shard.expected.splitlines())
    lines = []
    t0 = clock()
    for chunk in shard.text.split("emg 1\n")[1:]:
        tracer.new_request()
        with tracer.span("bench.census_record"):
            try:
                lines.append(census_record(embedding.parse_emg("emg 1\n" + chunk)))
            except Exception as exc:  # keep replaying; count the failure
                lines.append(f"raised {exc!r}")
    res.seconds["census_replay"] = clock() - t0
    for line in lines:
        res.op(line in expected, f"replayed census record differs: {line}")
    res.shares = census_shares(lines)
    return res


# ---------------------------------------------------------------------------
# exact-queries and cut-step
# ---------------------------------------------------------------------------


def exact_queries() -> dict:
    """The unlabeled inputs of the exact-queries workload, by kind."""
    framed = []
    for n in CRITICAL_FRAMED_LINKS:
        g, pairs = families.reduced_thomas_walls(n)
        framed.append((f"framed-T'{n}", families.frame(g, pairs, ((True, True), (True, True)))))
    return {
        "extendset": [(f"T'{n}", families.reduced_thomas_walls(n)[0]) for n in EXTENDSET_LINKS],
        "critical": [(f"T'{n}", families.reduced_thomas_walls(n)[0]) for n in CRITICAL_LINKS]
        + framed,
    }


def relabeled_queries(base: dict, seed, k: int) -> dict:
    """Labeling ``k`` of every query, as (name, graph, permutation) by kind."""
    return {
        kind: [(name, *relabeled(g, seed, f"exact/{k}/{name}")) for name, g in items]
        for kind, items in base.items()
    }


def exact_setup(seed: int) -> dict:
    base = exact_queries()
    labelings = [relabeled_queries(base, seed, k) for k in range(LABELINGS)]
    grid = relabeled(families.cylinder_grid(*GRID), seed, "exact/grid")[0]
    return {"labelings": labelings, "grid": grid, "reference": load_reference()}


def cut_setup(seed: int) -> dict:
    """The pool of cut-step labelings; it is the same for every seed."""
    base = {"cut_step": [(f"tube{TUBE_LAYERS}", penta_tube(TUBE_LAYERS))]}
    labelings = [relabeled_queries(base, CUT_POOL_SEED, k) for k in range(CUT_POOL)]
    return {"labelings": labelings, "reference": load_reference()}


def _short_noncontractible_extra(g) -> list:
    rings = {embedding.canon_cycle(r) for r in g.rings}
    return [
        r
        for r in embedding.enumerate_short_cycles(g, 4, only_noncontractible=True)
        if embedding.canon_cycle(r.vertices) not in rings
    ]


def cut_step_ok(g, out) -> bool:
    """Postconditions of the cutting step, as the full-pipeline test checks them."""
    d_in = embedding.distance(g, g.rings[0], g.rings[1])
    return (
        out.n < g.n
        and len(out.rings) == 2
        and bool(_short_noncontractible_extra(out))
        and embedding.distance(out, out.rings[0], out.rings[1]) >= d_in - 2
    )


def _ask(kind: str, g):
    # Module attributes are looked up at call time, so traced runs see them.
    if kind == "extendset":
        return coloring.extendable_set(g)
    if kind == "critical":
        return analysis.is_critical(g, guard=TUBE_GUARD).is_critical
    return surgery.cut_step(g, CUT_D0, guard=TUBE_GUARD, audit=True)


def _answer_ok(kind: str, name: str, g, perm, answer, ref: dict) -> bool:
    if kind == "extendset":
        want = ref["extendset"][name]
        return len(answer.members) == want["size"] and members_digest(answer, perm) == want["digest"]
    if kind == "critical":
        return answer is ref["critical"][name]
    return cut_step_ok(g, answer)


def query_pass(inputs: dict, k: int, tracer: Tracer) -> PassResult:
    """Labeling ``k`` of each kind of query in turn (exact-queries and
    cut-step); times are per kind, checks come after."""
    ref = inputs["reference"]
    lab = inputs["labelings"][k % len(inputs["labelings"])]
    res = PassResult()
    for kind, queries in lab.items():
        answers = []
        t0 = clock()
        for _, g, _ in queries:
            tracer.new_request()
            with tracer.span("bench.query"):
                try:
                    answers.append(_ask(kind, g))
                except Exception as exc:  # counted below as a failed query
                    answers.append(exc)
        res.seconds[kind] = clock() - t0
        for (name, g, perm), answer in zip(queries, answers):
            ok = not isinstance(answer, Exception) and _answer_ok(kind, name, g, perm, answer, ref)
            res.op(ok, f"{kind}({name}) answered {answer!r:.80}, not the reference")
        if kind == "critical":
            res.shares = {"critical_queries": len(answers), "critical": answers.count(True)}
    return res


def grid_probe(grid) -> tuple[bool, bool, str]:
    """Extend the empty precoloring on the bipartite 40x40 grid.

    Returns (answered correctly, known defect seen, note).  The recursive
    solver overflows the interpreter's recursion limit here; the limit is
    left as it is, so that the defect shows until it is fixed.
    """
    try:
        col = coloring.extend(grid, coloring.Precoloring.empty())
    except RecursionError:
        return False, True, "extend(grid 40x40) raised RecursionError (known defect)"
    except Exception as exc:  # any other outcome is a plain failure
        return False, False, f"extend(grid 40x40) raised {exc!r}"
    ok = col is not None and all(col[u] != col[v] for u, v in grid.edges())
    return ok, False, "extend(grid 40x40) answered" + ("" if ok else " wrongly")


# ---------------------------------------------------------------------------
# enumerate-classify
# ---------------------------------------------------------------------------


def classify_setup(seed: int) -> dict:
    graphs = embedding.parse_emg_stream(CLASSIFY_CORPUS.read_text(encoding="ascii"))
    texts = [
        "".join(
            embedding.emit_emg(relabeled(g, seed, f"classify/{k}/{i}")[0])
            for i, g in enumerate(graphs)
        )
        for k in range(LABELINGS)
    ]
    return {"texts": texts, "reference": load_reference()}


def classify_args(trace: bool) -> list[str]:
    return [str(HERE / "classify_worker.py"), "--trace", str(int(trace))]


def classify_pass(inputs: dict, k: int, tracer: Tracer, trace: bool = False) -> PassResult:
    """Generate both families in process, then classify in a fresh interpreter.

    With ``trace`` the interpreter records its own spans, which are merged
    under the call's span.
    """
    ref = inputs["reference"]
    res = PassResult()
    tracer.new_request()
    with tracer.span("bench.generate"):
        t0 = clock()
        quads = families.generate_quad33(GEN_QUAD_BOUND)
        hexes = families.generate_hexagon_disks(GEN_HEX_BOUND)
        res.seconds["generate"] = clock() - t0
    res.size = len(quads) + len(hexes)
    for name, got in (("quad33", quads), ("hexagon_disks", hexes)):
        want = ref["generate"][name]
        digest = hashlib.sha256(
            "\n".join(sorted(canon_hash(g) for g in got)).encode("ascii")
        ).hexdigest()[:16]
        res.op(
            len(got) == want["classes"] and digest == want["digest"],
            f"{name} generator: {len(got)} classes, digest {digest}",
        )

    tracer.new_request()
    with tracer.span("bench.classify_call"):
        dt, proc = run_child(classify_args(trace), inputs["texts"][k % LABELINGS])
        out = json.loads(proc.stdout) if proc.returncode == 0 else {}
        if "trace" in out:
            tracer.merge(out["trace"])
    res.seconds["classify"] = dt
    verdicts = out.get("verdicts", "")
    res.op(
        verdicts == ref["classify"]["verdicts"],
        f"classify: exit {proc.returncode}, verdicts {verdicts!r}, stderr {proc.stderr[-200:]!r}",
    )
    res.shares = {v: verdicts.count(v) for v in "NFX"}
    return res
