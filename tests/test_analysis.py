"""Analysis: criticality, six-ring criterion, audits, recognition, census."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylcolor
from cylcolor import analysis
from cylcolor._canon import canonical_form
from cylcolor.analysis import (
    census,
    face_deficiency,
    framed_patched_catalog,
    is_critical,
    lemma_fr_audit,
    recognize,
    reproduce_witness,
    sixring_criterion,
)
from cylcolor.coloring import Precoloring, extend
from cylcolor.embedding import EmbeddedGraph, relabel
from cylcolor.errors import (
    CatalogTooSmall,
    ImproperPrecoloring,
    NoRings,
    NotSixRing,
    TooLarge,
)
from cylcolor.families import (
    cylinder_grid,
    frame,
    generate_hexagon_disks,
    generate_patches,
    generate_quad33,
    near_quad33,
    reduced_thomas_walls,
)

import fixtures
from oracles import (
    reference_canonical_form,
    reference_framed_catalog,
    reference_is_contractible,
    reference_is_critical,
)


# -- exports ----------------------------------------------------------------------


@pytest.mark.parametrize("module", [cylcolor, analysis], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# -- criticality ------------------------------------------------------------------


def test_ring_only_graph_not_critical():
    rep = is_critical(fixtures.c4_disk())
    assert not rep.is_critical
    assert rep.witness == ("equals-rings", None)


def test_prism_critical():
    assert is_critical(fixtures.prism()).is_critical


def test_subdivided_prism_witness():
    rep = is_critical(fixtures.subdivided_prism())
    assert not rep.is_critical
    kind, detail = rep.witness
    assert kind == "vertex" and detail == 6
    g = fixtures.subdivided_prism()
    assert g.degree(6) == 2


def test_is_critical_matches_set_equality_oracle():
    # the corpus holds every quad33 graph on at most 8 vertices
    verdicts = set()
    corpus = fixtures.cylinder_corpus() + [("subdivided-prism", fixtures.subdivided_prism())]
    for name, g in corpus:
        rep = is_critical(g)
        assert rep == reference_is_critical(g), name
        verdicts.add(rep.witness[0] if rep.witness else None)
    assert verdicts == {None, "vertex", "edge"}


def test_criticality_guard():
    with pytest.raises(TooLarge):
        is_critical(cylinder_grid(4, 7), guard=22)


def test_criticality_needs_rings():
    with pytest.raises(NoRings):
        is_critical(fixtures.k4())


# -- six-ring criterion ------------------------------------------------------------


def test_criterion_periodic_pattern():
    g = fixtures.hub_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 3, 1, 2, 3))))
    assert sixring_criterion(g, psi) is True


def test_criterion_alternating_pattern():
    g = fixtures.hub_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 1, 2, 1, 2))))
    assert sixring_criterion(g, psi) is False


def test_criterion_chord_clash():
    g = fixtures.chord_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 3, 1, 3, 2))))
    assert sixring_criterion(g, psi) is True
    assert extend(g, psi) is None


def test_criterion_chord_ok():
    g = fixtures.chord_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 3, 2, 3, 2))))
    assert sixring_criterion(g, psi) is False
    assert extend(g, psi) is not None


def test_criterion_requires_six_ring():
    with pytest.raises(NotSixRing):
        sixring_criterion(fixtures.c4_disk(), Precoloring({0: 1}))
    g = fixtures.hub_hexagon()
    with pytest.raises(ImproperPrecoloring):
        sixring_criterion(g, Precoloring({0: 1}))


def test_criterion_agrees_with_solver_small():
    for g in generate_hexagon_disks(3):
        ring = g.rings[0]
        for combo in product((1, 2, 3), repeat=6):
            if any(
                combo[i] == combo[(i + 1) % 6] for i in range(6)
            ):
                continue
            psi = Precoloring(dict(zip(ring, combo)))
            assert sixring_criterion(g, psi) == (extend(g, psi) is None)


# -- structural audit -----------------------------------------------------------------


def test_audit_clean_on_critical_fixtures():
    assert lemma_fr_audit(fixtures.prism()) == []
    assert lemma_fr_audit(cylinder_grid(4, 2)) == []


def test_audit_flags_degree_two():
    violations = lemma_fr_audit(fixtures.subdivided_prism())
    assert any("degree" in v for v in violations)


def test_audit_flags_disk_walk():
    violations = lemma_fr_audit(fixtures.pentagon_disk_two_faces(), max_cycle_len=5)
    assert any("non-quadrilateral" in v for v in violations)


def test_audit_flags_nonfacial_short_cycle():
    # a contractible 5-cycle that does not bound a face
    g = fixtures.pentagon_disk_two_faces()
    violations = lemma_fr_audit(g)
    assert violations


def test_audit_contractibility_matches_face_split_oracle(monkeypatch):
    # the audit reads contractibility from embedding.is_contractible; the
    # same audit with each cycle classified by splitting its faces must
    # report the same violations
    graphs = [g for _, g in fixtures.cylinder_corpus()]
    graphs += [fixtures.subdivided_prism(), fixtures.pentagon_disk_two_faces()]
    got = [lemma_fr_audit(g, m) for g in graphs for m in (5, 6)]
    assert sum(map(len, got)) > 0
    monkeypatch.setattr(analysis, "is_contractible", reference_is_contractible)
    assert [lemma_fr_audit(g, m) for g in graphs for m in (5, 6)] == got


# -- face statistics -------------------------------------------------------------------


def test_quad33_zero_deficiency():
    for q in generate_quad33(8):
        assert face_deficiency(q).deficiency_internal == 0


def test_near_quad_deficiency_counts_subdivisions():
    g = fixtures.prism()
    one = near_quad33(g, ((0, 1), None))
    both = near_quad33(g, ((0, 1), (3, 4)))
    assert face_deficiency(one).deficiency_internal == 1
    assert face_deficiency(both).deficiency_internal == 2


def test_hub_disk_deficiency():
    stats = face_deficiency(fixtures.hub_hexagon())
    assert stats.deficiency_internal == 0
    assert stats.deficiency_all == 2


# -- canonical form ----------------------------------------------------------------------


def test_canonical_invariance_random_relabelings():
    rng = random.Random(11)
    for _, g in [("prism", fixtures.prism()), ("T'3", reduced_thomas_walls(3)[0])]:
        base = canonical_form(g)
        for _ in range(50):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == base


def test_canonical_ring_swap():
    g = fixtures.prism()
    swapped = EmbeddedGraph(g.rotations, (g.rings[1], g.rings[0]))
    assert canonical_form(g) == canonical_form(swapped)


def test_canonical_reflection():
    from cylcolor.embedding import reflected

    g = reduced_thomas_walls(3)[0]
    assert canonical_form(g) == canonical_form(reflected(g))


def test_canonical_distinguishes():
    assert canonical_form(fixtures.prism()) != canonical_form(cylinder_grid(4, 2))
    assert canonical_form(cylinder_grid(4, 2)) != canonical_form(cylinder_grid(4, 3))
    # same abstract graph, different hole designation
    g = cylinder_grid(4, 2)
    assert canonical_form(g) != canonical_form(g.with_rings((g.rings[0],)))


def test_canonical_form_matches_prefix_reference():
    # the corpus holds every quad33 graph on <= 8 vertices
    graphs = [g for _, g in fixtures.cylinder_corpus()]
    graphs += [cylinder_grid(20, 20), reduced_thomas_walls(20)[0]]
    rng = random.Random(17)
    for g in graphs:
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_form(h) == reference_canonical_form(h)
        assert canonical_form(g) == reference_canonical_form(g)


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_canonical_invariance_property(rnd):
    g = fixtures.penta_tube(1)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(relabel(g, perm)) == canonical_form(g)


# -- recognition ----------------------------------------------------------------------------


def test_recognize_near_quad():
    g = fixtures.prism()
    out = near_quad33(g, ((0, 1), None))
    w = recognize(out, catalog_bound=14, patch_bound=1)
    assert w.verdict == "near_quad33"
    rebuilt = reproduce_witness(w)
    assert canonical_form(rebuilt) == canonical_form(out)


def test_recognize_framed():
    g, pairs = reduced_thomas_walls(2)
    f = frame(g, pairs, ((True, True), (False, True)))
    w = recognize(f, catalog_bound=14, patch_bound=1)
    assert w.verdict == "framed_patched_tw"
    rebuilt = reproduce_witness(w)
    assert canonical_form(rebuilt) == canonical_form(f)


def test_recognize_patched_framed():
    g, pairs = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    from cylcolor.families import _patch_graph_mapped, InterfacePairs

    patched, remap = _patch_graph_mapped(g, [(4, hub)])
    mapped = InterfacePairs(
        (remap[pairs.first[0]], remap[pairs.first[1]]),
        (remap[pairs.second[0]], remap[pairs.second[1]]),
    )
    f = frame(patched, mapped, ((True, True), (True, True)))
    w = recognize(f, catalog_bound=18, patch_bound=1)
    assert w.verdict == "framed_patched_tw"
    rebuilt = reproduce_witness(w)
    assert canonical_form(rebuilt) == canonical_form(f)


def test_recognize_neither():
    # a grid with one subdivided middle edge is no member of either family
    g = cylinder_grid(4, 3)
    rot = [list(r) for r in g.rotations]
    rot[4][rot[4].index(5)] = 12
    rot[5][rot[5].index(4)] = 12
    rot.append([4, 5])
    gg = EmbeddedGraph(tuple(tuple(r) for r in rot), g.rings)
    w = recognize(gg, catalog_bound=14, patch_bound=1)
    assert w.verdict == "neither"


def test_recognize_catalog_too_small():
    g = cylinder_grid(4, 8)  # 32 vertices, saturated catalog cannot decide
    with pytest.raises(CatalogTooSmall):
        recognize(g, catalog_bound=14, patch_bound=1)


def test_catalog_contains_plain_framed_members():
    catalog = framed_patched_catalog(11, 1)
    g, pairs = reduced_thomas_walls(1)
    f = frame(g, pairs, ((True, True), (True, True)))
    assert canonical_form(f) in catalog


@pytest.mark.parametrize("catalog_bound, patch_bound", [(14, 1), (16, 2)])
def test_catalog_grown_by_queries_matches_one_shot_build(monkeypatch, catalog_bound, patch_bound):
    # query sizes in a shuffled order: each catalog returned holds every
    # member up to the size asked for and no graph outside the family, and
    # the grown catalog is the one-shot build, recipes included
    from cylcolor.families import build_framed_patched

    reference = reference_framed_catalog(catalog_bound, patch_bound)
    size = {key: build_framed_patched(recipe).n for key, recipe in reference.items()}
    monkeypatch.setattr(analysis, "_CATALOG_CACHE", {})
    sizes = list(range(catalog_bound + 1))
    random.Random(catalog_bound).shuffle(sizes)
    for n in sizes:
        catalog = framed_patched_catalog(n, patch_bound)
        assert catalog.keys() <= reference.keys()
        assert {key for key in reference if size[key] <= n} <= catalog.keys()
    assert framed_patched_catalog(catalog_bound, patch_bound) == reference


def _count_enumerated(monkeypatch) -> list[int]:
    """Empty the catalog cache and record the size of each member enumerated."""
    from cylcolor import families

    enumerated = []

    def counted(max_vertices, patch_bound, above=0):
        for item in families.enumerate_framed_patched(max_vertices, patch_bound, above):
            enumerated.append(item[0].n)
            yield item

    monkeypatch.setattr(analysis, "_CATALOG_CACHE", {})
    monkeypatch.setattr(analysis, "enumerate_framed_patched", counted)
    return enumerated


def test_catalog_growth_enumerates_each_member_once(monkeypatch):
    enumerated = _count_enumerated(monkeypatch)
    for n in (4, 8, 11, 14):
        framed_patched_catalog(n, 2)
    # a rebuild at each step would enumerate 1 + 21 + 37 + 245 = 304
    assert len(enumerated) == 245
    assert framed_patched_catalog(14, 2) == reference_framed_catalog(14, 2)


def test_cold_recognize_builds_members_up_to_the_input_size(monkeypatch):
    enumerated = _count_enumerated(monkeypatch)
    g = cylinder_grid(4, 3)  # 12 vertices, a member of neither family
    assert recognize(g, catalog_bound=20, patch_bound=4).verdict == "neither"
    # the whole catalog at (20, 4) enumerates 57 013 members
    assert len(enumerated) == 43 and max(enumerated) == 12
    assert recognize(g, catalog_bound=20, patch_bound=4).verdict == "neither"
    assert len(enumerated) == 43  # the second query reads the cached catalog


# -- census -----------------------------------------------------------------------------------


def test_census_quad33():
    graphs = generate_quad33(7)
    report = census(graphs, guard=16, catalog_bound=10, patch_bound=1)
    assert len(report.records) == len(graphs)
    for rec in report.records:
        assert rec.verdict == "NQ"
        assert rec.def_int == 0
    assert not report.counterexamples


def test_census_framed():
    from cylcolor.families import enumerate_framed_patched

    seen = {}
    for g, _ in enumerate_framed_patched(11, 1):
        seen.setdefault(canonical_form(g), g)
    graphs = [seen[k] for k in sorted(seen)]
    report = census(graphs, guard=16, catalog_bound=11, patch_bound=1)
    # every member is recognized; a few small ones are simultaneously
    # near quadrangulations (the constructions overlap at this scale)
    verdicts = [r.verdict for r in report.records]
    assert all(v in ("FPTW", "NQ") for v in verdicts)
    assert verdicts.count("FPTW") >= len(verdicts) - 2
    # every member that exceeds its rings admits a non-extendable precoloring
    from cylcolor.coloring import extendable_set, ring_precolorings

    for g in graphs:
        ring_edges = g.ring_edge_set()
        equals_rings = set(range(g.n)) == set(g.ring_vertices) and all(
            frozenset(e) in ring_edges for e in g.edges()
        )
        total = sum(1 for _ in ring_precolorings(g))
        ext = len(extendable_set(g).members)
        if equals_rings:
            assert ext == total
        else:
            assert ext < total


def test_census_empty():
    report = census([])
    assert report.records == () and not report.has_flags


def test_census_parallel_matches_serial():
    graphs = generate_quad33(7)
    a = census(graphs, guard=14, catalog_bound=10, patch_bound=1, jobs=1)
    b = census(graphs, guard=14, catalog_bound=10, patch_bound=1, jobs=2)
    assert [r.line() for r in a.records] == [r.line() for r in b.records]


def test_census_parallel_builds_no_catalog_for_nq_corpus():
    # every quad33 graph is recognized structurally, so no worker needs the
    # catalog and the parent process must not build it either
    from cylcolor import analysis

    key = 0  # the cache keeps one catalog per patch bound
    analysis._CATALOG_CACHE.pop(key, None)
    report = census(generate_quad33(7), guard=14, catalog_bound=9, patch_bound=0, jobs=2)
    assert all(r.verdict == "NQ" for r in report.records)
    assert key not in analysis._CATALOG_CACHE


def test_census_line_format():
    report = census([fixtures.prism()], guard=10, catalog_bound=8, patch_bound=1)
    line = report.records[0].line()
    assert line.startswith("canon=")
    for key in ("tame=", "critical=", "verdict=", "def_int=", "chain="):
        assert key in line


def test_census_pool_is_capped_at_corpus_size(monkeypatch):
    # a stand-in context records the pool size asked for and runs the
    # work in this process, so no worker is ever started
    import multiprocessing

    requested = []

    class InlinePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    class InlineContext:
        Pool = InlinePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: InlineContext())
    graphs = generate_quad33(7)[:3]
    serial = census(graphs, guard=14, catalog_bound=10, patch_bound=1)
    for jobs in (2, 3, 10**6):
        report = census(graphs, guard=14, catalog_bound=10, patch_bound=1, jobs=jobs)
        assert report.lines() == serial.lines()
    assert requested == [2, 3, 3]
    census(graphs[:1], guard=14, catalog_bound=10, patch_bound=1, jobs=8)
    assert requested == [2, 3, 3]  # one graph runs in process
