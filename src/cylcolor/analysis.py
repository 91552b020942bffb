"""Decision procedures and audits over embedded graphs.

The six-ring extension criterion, structural audits of critical graphs,
face-length statistics, family recognition (structural for near
quadrangulations, catalog lookup for framed patched chain graphs), and a
census driver that runs the whole battery.  Criticality lives in
``surgery``, with the deletion test it shares with the maximal-critical
extraction; ``is_critical`` and ``CriticalityReport`` are re-exported
here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from ._canon import canonical_form
from .coloring import Precoloring, _solve_first  # noqa: F401  (benchmark tracing wraps it here)
from .embedding import (
    EmbeddedGraph,
    canon_cycle,
    is_contractible,
    is_tame,
    _cycles_up_to,
    _face_sides,
)
from .errors import (
    CatalogTooSmall,
    CylColorError,
    ImproperPrecoloring,
    NotSixRing,
)
from .families import (
    FramedRecipe,
    build_framed_patched,
    enumerate_framed_patched,
    near_quad33,
    near_quad33_decomposition,
)
from .surgery import CriticalityReport, chain_decompose, is_critical

__all__ = [
    "CriticalityReport",
    "FamilyWitness",
    "FaceStats",
    "CensusRecord",
    "CensusReport",
    "canonical_form",
    "is_critical",
    "sixring_criterion",
    "lemma_fr_audit",
    "face_deficiency",
    "recognize",
    "reproduce_witness",
    "framed_patched_catalog",
    "VERDICT_NAMES",
    "census",
]


# ---------------------------------------------------------------------------
# six-ring criterion
# ---------------------------------------------------------------------------


def sixring_criterion(g: EmbeddedGraph, psi: Precoloring) -> bool:
    """True iff the criterion predicts psi does NOT extend.

    For a quadrangulated disk with 6-ring v1..v6: non-extension happens
    exactly when some diagonal chord v_i v_{i+3} exists with equal colors
    at its ends, or the ring is induced and psi is 3-periodic
    (psi(v1)=psi(v4), psi(v2)=psi(v5), psi(v3)=psi(v6)).
    """
    if len(g.rings) != 1 or len(g.rings[0]) != 6:
        raise NotSixRing("graph does not carry a single 6-ring")
    ring = g.rings[0]
    if any(v not in psi.assignments for v in ring):
        raise ImproperPrecoloring("precoloring must be total on the ring")
    col = psi.assignments
    chords = [
        (ring[i], ring[i + 3]) for i in range(3) if g.has_edge(ring[i], ring[i + 3])
    ]
    for a, b in chords:
        if col[a] == col[b]:
            return True
    if not chords:
        if all(col[ring[i]] == col[ring[i + 3]] for i in range(3)):
            return True
    return False


# ---------------------------------------------------------------------------
# structural audit of critical graphs
# ---------------------------------------------------------------------------


def lemma_fr_audit(g: EmbeddedGraph, max_cycle_len: int = 6) -> list[str]:
    """Check the structural facts that hold for critical graphs.

    Returns violations of: internal vertices of degree >= 3; contractible
    (<= 5)-cycles bounding faces; and the disk condition (a contractible
    cycle either bounds a face or encloses quadrilaterals only), audited
    over contractible cycles up to max_cycle_len.
    """
    violations: list[str] = []
    ring_vs = g.ring_vertices
    for v in range(g.n):
        if v not in ring_vs and g.degree(v) < 3:
            violations.append(f"internal vertex {v} has degree {g.degree(v)}")
    face_canons = {canon_cycle(f) for f in g.faces.faces}
    holes = set(g.faces.ring_faces)
    for cyc in _cycles_up_to(g, max(5, max_cycle_len)):
        if not is_contractible(g, cyc):
            continue
        if len(cyc) <= 5 and canon_cycle(cyc) not in face_canons:
            violations.append(f"contractible {len(cyc)}-cycle {cyc} does not bound a face")
        if len(cyc) > max_cycle_len:
            continue
        # every hole-free side is an open disk: it must be a single face
        # or contain quadrilaterals only
        for side in _face_sides(g, cyc):
            if holes & side or len(side) == 1:
                continue
            if any(len(g.faces.faces[i]) != 4 for i in side):
                violations.append(
                    f"disk bounded by {cyc} holds a non-quadrilateral face"
                )
    return violations


# ---------------------------------------------------------------------------
# face statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceStats:
    """Sum of (length - 4) over faces, with and without the hole faces."""

    deficiency_internal: int
    deficiency_all: int


def face_deficiency(g: EmbeddedGraph) -> FaceStats:
    holes = set(g.faces.ring_faces)
    internal = sum(len(f) - 4 for i, f in enumerate(g.faces.faces) if i not in holes)
    total = sum(len(f) - 4 for f in g.faces.faces)
    return FaceStats(internal, total)


# ---------------------------------------------------------------------------
# family recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyWitness:
    """Classification verdict with a reproducing decomposition."""

    verdict: str  # "framed_patched_tw" | "near_quad33" | "neither"
    decomposition: Optional[object] = None


# Census and CLI spelling of each recognition verdict.
VERDICT_NAMES = {"near_quad33": "NQ", "framed_patched_tw": "FPTW", "neither": "NEITHER"}

# One catalog per patch bound, with the vertex bound it was built for.
_CATALOG_CACHE: dict[int, tuple[int, dict[bytes, FramedRecipe]]] = {}


def framed_patched_catalog(
    catalog_bound: int, patch_bound: int = 4
) -> dict[bytes, FramedRecipe]:
    """Canonical-form index of framed patched chain graphs.

    Complete for every member whose patches all have at most patch_bound
    internal vertices and whose vertex count is at most catalog_bound.
    One catalog is kept per patch bound.  A catalog complete up to a
    larger vertex bound answers every smaller query, so it is returned
    as it is.  A catalog complete only up to a smaller bound b0 grows in
    place by the members with more than b0 vertices, so each member is
    enumerated once however the queries grow.  The recipes are those of
    one build at the largest bound asked for: every member of a class has
    the same vertex count, so the first recipe of a class in the
    enumeration restricted to sizes above b0 is its first recipe overall.
    """
    built, catalog = _CATALOG_CACHE.get(patch_bound, (0, {}))
    if built < catalog_bound:
        for graph, recipe in enumerate_framed_patched(catalog_bound, patch_bound, built):
            catalog.setdefault(canonical_form(graph), recipe)
        _CATALOG_CACHE[patch_bound] = (catalog_bound, catalog)
    return catalog


def recognize(
    g: EmbeddedGraph, catalog_bound: int = 20, patch_bound: int = 4
) -> FamilyWitness:
    """Decide which construction the graph matches.

    Near 3,3-quadrangulations are recognized structurally.  Framed
    patched chain graphs are matched by canonical form against the
    enumerated catalog, which is built only up to the input's own vertex
    count: an isomorphic member has as many vertices.  A graph larger
    than catalog_bound is not looked up at all.  "neither" is only
    returned when the catalog provably covers every member of the
    input's size; otherwise CatalogTooSmall is raised.
    """
    dec = near_quad33_decomposition(g)
    if dec is not None:
        return FamilyWitness("near_quad33", dec)
    if g.n <= catalog_bound:
        recipe = framed_patched_catalog(g.n, patch_bound).get(canonical_form(g))
        if recipe is not None:
            return FamilyWitness("framed_patched_tw", recipe)
        # Any member on <= n vertices uses patches with at most n - 12
        # internal vertices (smallest patchable chain has 10 vertices, a
        # hexagon costs 2), so the catalog is conclusive only within these
        # bounds.
        if max(0, g.n - 12) <= patch_bound:
            return FamilyWitness("neither", None)
    raise CatalogTooSmall(
        f"no verdict: {g.n} vertices vs catalog bound {catalog_bound} "
        f"with patches up to {patch_bound}"
    )


def reproduce_witness(w: FamilyWitness) -> Optional[EmbeddedGraph]:
    """Rebuild a graph from a positive witness's decomposition."""
    if w.verdict == "near_quad33":
        base, subs = w.decomposition
        return near_quad33(base, subs)
    if w.verdict == "framed_patched_tw":
        return build_framed_patched(w.decomposition)
    return None


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRecord:
    canon: str
    tame: bool
    critical: Optional[bool]  # None when the guard skipped the check
    verdict: str  # NQ | FPTW | NEITHER | UNKNOWN
    def_int: int
    chain_n: int

    def line(self) -> str:
        crit = "-" if self.critical is None else ("1" if self.critical else "0")
        return (
            f"canon={self.canon} tame={int(self.tame)} critical={crit} "
            f"verdict={self.verdict} def_int={self.def_int} chain={self.chain_n}"
        )


@dataclass(frozen=True)
class CensusReport:
    records: tuple[CensusRecord, ...]
    counterexamples: tuple[str, ...]

    @property
    def has_flags(self) -> bool:
        return bool(self.counterexamples) or any(
            r.verdict == "UNKNOWN" for r in self.records
        )

    def lines(self) -> list[str]:
        out = [r.line() for r in self.records]
        for c in self.counterexamples:
            out.append(f"flag counterexample-at-scale canon={c}")
        return out


def _census_one(args) -> CensusRecord:
    g, guard, catalog_bound, patch_bound = args
    canon = hashlib.sha256(canonical_form(g)).hexdigest()[:16]
    tame = is_tame(g)
    critical: Optional[bool] = None
    if g.n <= guard:
        critical = is_critical(g, guard=guard).is_critical
    try:
        verdict = VERDICT_NAMES[recognize(g, catalog_bound, patch_bound).verdict]
    except CatalogTooSmall:
        verdict = "UNKNOWN"
    def_int = face_deficiency(g).deficiency_internal
    chain_n = 0
    if tame and len(g.rings) == 2 and all(len(r) <= 4 for r in g.rings):
        try:
            chain_n = chain_decompose(g).n
        except CylColorError:
            chain_n = 0
    return CensusRecord(canon, tame, critical, verdict, def_int, chain_n)


def census(
    graphs: Sequence[EmbeddedGraph],
    guard: int = 22,
    catalog_bound: int = 20,
    patch_bound: int = 4,
    jobs: int = 1,
) -> CensusReport:
    """Run the classification battery over a corpus of cylinder graphs.

    Flags every instance that is tame, critical, and recognized as
    neither construction: a would-be counterexample at its scale (the
    classification hypothesis needs ring distance beyond desk sizes, so
    flags are leads, not refutations).  Output order is canonical, so the
    report does not depend on scheduling.  ``jobs`` above 1 runs the
    graphs in a pool of at most ``jobs`` workers, and never more workers
    than graphs.
    """
    work = [(g, guard, catalog_bound, patch_bound) for g in graphs]
    workers = min(jobs, len(work))
    if workers > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            records = pool.map(_census_one, work)
    else:
        records = [_census_one(w) for w in work]
    records.sort(key=lambda r: r.canon)
    flags = tuple(
        r.canon
        for r in records
        if r.tame and r.critical and r.verdict == "NEITHER"
    )
    return CensusReport(tuple(records), flags)
