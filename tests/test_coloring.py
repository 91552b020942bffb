"""Coloring engine against the 3^n brute-force oracle."""

from __future__ import annotations

import random
import time
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylcolor import coloring
from cylcolor.coloring import (
    Precoloring,
    blocked_precolorings,
    count_colorings,
    dominates,
    dominates_under,
    extend,
    extendable_set,
    ring_precolorings,
    _ring_signature,
)
from cylcolor.embedding import EmbeddedGraph, parse_emg_stream, relabel
from cylcolor.errors import ImproperPrecoloring, NoRings, RingMismatch, TooLarge
from cylcolor.families import (
    cylinder_grid,
    generate_hexagon_disks,
    generate_patches,
    generate_quad33,
    near_quad33,
    reduced_thomas_walls,
    subdivision_choices,
)

import fixtures
from oracles import (
    _ref_members,
    brute_count,
    brute_ring_members,
    reference_count,
    reference_first,
    reference_sweep_members,
)


def single_edge() -> EmbeddedGraph:
    return EmbeddedGraph(((1,), (0,)))


# -- extend -------------------------------------------------------------------


def test_k4_has_no_3coloring():
    assert extend(fixtures.k4(), Precoloring.empty()) is None


def test_hub_hexagon_periodic_blocked():
    g = fixtures.hub_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 3, 1, 2, 3))))
    assert extend(g, psi) is None


def test_hub_hexagon_alternating_extends():
    g = fixtures.hub_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 1, 2, 1, 2))))
    got = extend(g, psi)
    assert got is not None
    # only the hub (adjacent to three vertices colored 1) was free
    assert got[6] in (2, 3)
    assert count_colorings(g, psi) == 2
    for u, v in g.edges():
        assert got[u] != got[v]


def test_extend_deterministic():
    g = cylinder_grid(4, 3)
    a = extend(g, Precoloring.empty())
    b = extend(g, Precoloring.empty())
    assert a == b


def test_extend_large_grid_answers():
    # 1600 vertices: deeper than the interpreter's recursion limit
    g = cylinder_grid(40, 40)
    col = extend(g, Precoloring.empty())
    assert col is not None
    assert all(col[u] != col[v] for u, v in g.edges())


def test_kernel_matches_recursive_reference_on_corpus():
    # same first solution (so extend stays deterministic) and same count
    for name, g in fixtures.cylinder_corpus():
        psis = [{}] + [fixed for _, fixed in ring_precolorings(g)]
        for fixed in psis:
            psi = Precoloring(fixed)
            assert extend(g, psi) == reference_first(g.rotations, fixed), (name, fixed)
            assert count_colorings(g, psi) == reference_count(g.rotations, fixed), (
                name,
                fixed,
            )


def test_extend_agrees_with_count():
    graphs = fixtures.cylinder_corpus() + fixtures.sphere_corpus()
    graphs += [(f"tube{k}", fixtures.penta_tube(k)) for k in range(1, 10)]
    for _, g in graphs:
        psi = Precoloring.empty()
        assert (extend(g, psi) is not None) == (count_colorings(g, psi) > 0)


# -- counting -----------------------------------------------------------------


def test_c4_count_is_18():
    assert count_colorings(fixtures.c4_disk(), Precoloring.empty()) == 18


def test_single_edge_count_is_6():
    assert count_colorings(single_edge(), Precoloring.empty()) == 6


def test_k4_count_is_0():
    assert count_colorings(fixtures.k4(), Precoloring.empty()) == 0


def test_count_matches_oracle_on_corpus():
    for name, g in fixtures.cylinder_corpus():
        if g.n > 12:
            continue
        assert count_colorings(g, Precoloring.empty()) == brute_count(g, {}), name


def test_count_with_precoloring_matches_oracle():
    g = fixtures.prism()
    psi = {0: 1, 1: 2, 3: 1}
    assert count_colorings(g, Precoloring(psi)) == brute_count(g, psi)


@given(st.sampled_from(list(permutations((1, 2, 3)))))
def test_count_invariant_under_color_permutation(perm):
    g = fixtures.prism()
    base = {0: 1, 1: 2, 4: 3}
    mapped = {v: perm[c - 1] for v, c in base.items()}
    assert count_colorings(g, Precoloring(base)) == count_colorings(
        g, Precoloring(mapped)
    )


def _unusual_shapes() -> list[tuple[str, EmbeddedGraph]]:
    out = [(f"K2,{n}", fixtures.k2n_sphere(n)) for n in range(3, 9)]
    out += [(f"tube{k}", fixtures.penta_tube(k)) for k in range(1, 4)]
    out += fixtures.sphere_corpus()
    out.append(("C4-disk", fixtures.c4_disk()))
    out.append(("T'1", reduced_thomas_walls(1)[0]))
    return out


def test_count_at_wide_frontiers_and_unusual_shapes():
    # K_{2,n} from a hub has a first BFS layer n wide; nothing is placed
    # after ring 1 in the C4 disk; the two rings of T'_1 share every vertex
    for name, g in _unusual_shapes():
        psis = [{}] + [fixed for _, fixed in ring_precolorings(g)]
        for fixed in psis:
            got = count_colorings(g, Precoloring(fixed))
            assert got == reference_count(g.rotations, fixed), (name, fixed)
        if g.rings:
            # 3^n brute force up to 16 vertices, the recursive search beyond
            want = brute_ring_members(g) if g.n <= 16 else _ref_members(g.rotations, g)
            assert extendable_set(g).members == want, name


def test_sweep_state_bound_raises_too_large(monkeypatch):
    # T'_3 has 3 ring-1 colorings up to renaming, at most 14 frontier
    # colorings at once, 6 * 14 before the six renamings merge, and 120
    # extendable precolorings
    g, _ = reduced_thomas_walls(3)
    for bound, what in (
        (4, "ring 1 has 3 colorings"), (13, "sweep holds"), (83, "ring relation"),
        (119, "extendable set"),
    ):
        monkeypatch.setattr(coloring, "_MAX_STATES", bound)
        with pytest.raises(TooLarge, match=what):
            extendable_set(g)
        with pytest.raises(TooLarge, match=what):
            dominates(g, g)
    # only the members are past the bound: the relation is still read
    assert next(blocked_precolorings(g), None) is not None
    monkeypatch.setattr(coloring, "_MAX_STATES", 120)
    assert len(extendable_set(g).members) == 120
    monkeypatch.setattr(coloring, "_MAX_STATES", 9)
    with pytest.raises(TooLarge, match="sweep holds"):
        count_colorings(g, Precoloring({}))


def _layer_transfer_matrix(c: int) -> np.ndarray:
    """0/1 compatibility matrix of the proper 3-colorings of C_c: two
    layer colorings are compatible when they differ at every position."""
    layers = [
        col for col in product((1, 2, 3), repeat=c)
        if all(col[i] != col[i - 1] for i in range(c))
    ]
    return np.array(
        [[int(all(x != y for x, y in zip(a, b))) for b in layers] for a in layers],
        dtype=object,
    )


def test_count_matches_transfer_matrix_and_grows_exponentially():
    """Desk-scale evidence for the closing corollary of the paper:
    triangle-free planar graphs of bounded degree have exponentially
    many 3-colorings."""
    ratios = []
    for c in range(3, 7):
        T = _layer_transfer_matrix(c)
        v = np.ones(len(T), dtype=object)
        counts = []
        for L in range(1, 13):
            if L > 1:
                v = T.dot(v)
            counts.append(int(v.sum()))
            assert count_colorings(cylinder_grid(c, L), Precoloring.empty()) == counts[-1], (c, L)
        top = max(np.linalg.eigvals(T.astype(float)).real)
        ratios.append(f"C{c} {counts[-1] / counts[-2]:.4f} (eigenvalue {top:.4f})")
    tw = [count_colorings(reduced_thomas_walls(n)[0], Precoloring.empty()) for n in range(2, 13)]
    assert tw == [54, 144, 360, 864, 2016, 4608, 10368, 23040, 50688, 110592, 239616]
    tubes = [count_colorings(fixtures.penta_tube(k), Precoloring.empty()) for k in range(1, 10)]
    assert tubes == [
        66, 360, 2124, 12708, 76212, 457236, 2743380, 16460244, 98761428
    ]
    print(
        f"\nCOUNT SWEEP: PASS (ratio per added grid layer at L=12: {', '.join(ratios)};"
        f" T'_2..T'_12: {tw}; penta_tube(1..9): {tubes})"
    )


# -- precoloring validation -----------------------------------------------------


def test_rejects_color_out_of_range():
    with pytest.raises(ImproperPrecoloring):
        extend(fixtures.c4_disk(), Precoloring({0: 4}))


def test_rejects_nonring_domain():
    g = fixtures.hub_hexagon()
    with pytest.raises(ImproperPrecoloring):
        extend(g, Precoloring({6: 1}))


def test_rejects_ring_edge_clash():
    g = fixtures.c4_disk()
    with pytest.raises(ImproperPrecoloring):
        extend(g, Precoloring({0: 1, 1: 1}))


def test_chord_clash_is_legal_input():
    # equal colors across a chord are a valid precoloring that does not
    # extend, not a validation error
    g = fixtures.chord_hexagon()
    psi = Precoloring(dict(zip(g.rings[0], (1, 2, 3, 1, 3, 2))))
    assert psi.assignments[0] == psi.assignments[3]
    assert extend(g, psi) is None


# -- extendable sets -------------------------------------------------------------


def test_ring_precolorings_lexicographic_and_proper():
    corpus = fixtures.cylinder_corpus() + [("shared", fixtures.shared_vertex_quad33())]
    for name, g in corpus:
        domain = sorted(g.ring_vertices)
        edges = [(a, b) for r in g.rings for a, b in zip(r, r[1:] + r[:1])]
        want = []
        for combo in product((1, 2, 3), repeat=len(domain)):
            col = dict(zip(domain, combo))
            if all(col[a] != col[b] for a, b in edges):
                want.append((combo, col))
        assert list(ring_precolorings(g)) == want, name


def test_ring_only_graph_has_full_set():
    es = extendable_set(fixtures.c4_disk())
    assert len(es.members) == 18
    assert es.ring_domain == (0, 1, 2, 3)


def test_prism_extendable_set_matches_brute_force():
    g = fixtures.prism()
    es = extendable_set(g)
    assert es.members == brute_ring_members(g)
    assert len(es.members) == 12


def test_extendable_set_matches_brute_force_on_corpus():
    for name, g in fixtures.cylinder_corpus():
        if g.n > 12:
            continue
        assert extendable_set(g).members == brute_ring_members(g), name


def _sweep_corpus() -> list[tuple[str, EmbeddedGraph]]:
    out = [(f"quad33-{i}", q) for i, q in enumerate(generate_quad33(9))]
    for i, q in enumerate(generate_quad33(8)):
        for choice in subdivision_choices(q):
            if choice != (None, None):
                out.append((f"near-quad33-{i}-{choice}", near_quad33(q, choice)))
    out += [(f"C4xP{k}", cylinder_grid(4, k)) for k in range(3, 9)]
    out += [(f"tube{k}", fixtures.penta_tube(k)) for k in (2, 3)]
    # one-ring disks, a chord inside ring 1, and rings sharing a vertex
    out += [(f"hexdisk-{i}", d) for i, d in enumerate(generate_hexagon_disks(4))]
    out += [(f"patch-{i}", p) for i, p in enumerate(generate_patches(3))]
    out += [("chord-hexagon", fixtures.chord_hexagon())]
    out += [("shared-vertex", fixtures.shared_vertex_quad33())]
    return out + fixtures.cylinder_corpus()


def _direct(g: EmbeddedGraph) -> frozenset:
    """Whole-graph search by the reference solver, one precoloring at a time."""
    return _ref_members(g.rotations, g)


def test_extendable_set_matches_reference_search():
    rng = random.Random(4)
    swapped = 0
    for name, g in _sweep_corpus():
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        want = _direct(h)
        es = extendable_set(h)
        assert es.ring_domain == tuple(sorted(h.ring_vertices)), name
        assert es.members == want, name
        if len(h.rings) == 2:
            # the sweep starts from ring 1 and keeps ring 2 live to the end
            assert extendable_set(h.with_rings(h.rings[::-1])).members == want, name
            swapped += 1
    assert swapped >= 1298


def test_thomas_walls_chains_match_reference_search():
    for n in range(5, 14):
        g, _ = reduced_thomas_walls(n)
        assert extendable_set(g).members == _direct(g), n


def _proper_ring1_colorings(g: EmbeddedGraph) -> int:
    """The colorings of ring 1 proper on every edge among its vertices."""
    ring1 = sorted(g.rings[0])
    edges = [(i, j) for i, a in enumerate(ring1) for j, b in enumerate(ring1)
             if i < j and b in g.rotations[a]]
    return sum(all(c[i] != c[j] for i, j in edges)
               for c in product((1, 2, 3), repeat=len(ring1)))


def _pairs(relation) -> int:
    """The (start, frontier coloring) pairs of a state or relation."""
    return sum(bin(mask).count("1") for mask in relation.values())


def test_sweep_matches_the_unreduced_reference():
    # the sweep pins one ring-1 edge to the colors 1 and 2 and renames
    # its final state at the end; the former sweep kept every frontier
    # coloring, at sizes brute force cannot reach
    graphs = [(f"tube{k}", fixtures.penta_tube(k)) for k in range(1, 10)]
    graphs += [(f"T'{n}", reduced_thomas_walls(n)[0]) for n in range(2, 41)]
    graphs += [(f"C{a}xP{b}", cylinder_grid(a, b)) for a in range(3, 7) for b in range(3, 11)]
    frontier = coloring._frontier
    for name, g in graphs:
        calls = []

        def watched(adj, order, live, state, stay, fixed, join):
            out = frontier(adj, order, live, state, stay, fixed, join)
            calls.append((fixed, state, out[1]))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coloring, "_frontier", watched)
            got = extendable_set(g).members
        assert got == reference_sweep_members(g), name
        # so that the reduction cannot silently switch off
        (pin, _, seeded), (_, starts, final) = calls
        assert pin == {g.rings[0][0]: 1, g.rings[0][1]: 2}, name
        assert len(starts) == len(seeded), name
        assert 6 * len(seeded) == _proper_ring1_colorings(g), name
        assert _pairs(coloring._sweep(g).relation) == 6 * _pairs(final), name


def _blocked_corpus() -> list[tuple[str, EmbeddedGraph]]:
    out = [(f"hexdisk-{i}", d) for i, d in enumerate(generate_hexagon_disks(3))]
    out += [(f"patch-{i}", p) for i, p in enumerate(generate_patches(3))]
    out += [(f"C{a}xP{b}", cylinder_grid(a, b)) for a in range(3, 6) for b in range(2, 5)]
    out += [(f"T'{n}", reduced_thomas_walls(n)[0]) for n in range(1, 8)]
    out += fixtures.cylinder_corpus()
    emg = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "quad33_le10.emg"
    quads = parse_emg_stream(emg.read_text(encoding="ascii"))[::7]
    return out + [(f"quad33-{7 * i}", q) for i, q in enumerate(quads)]


def test_blocked_precolorings_are_the_ones_that_do_not_extend():
    # one ring (the final frontier is empty, so its one key collects the
    # bits of all six renamings), chords, shared ring vertices, and two
    # rings far apart
    for name, g in _blocked_corpus():
        members = _ref_members(g.rotations, g)
        want = [fixed for combo, fixed in ring_precolorings(g) if combo not in members]
        assert list(blocked_precolorings(g)) == want, name


def test_the_pinned_ring_edge_does_not_matter():
    # the sweep pins the edge from the first listed vertex of ring 1 to
    # the second; list ring 1 from each vertex, both ways round
    for name, g in _blocked_corpus():
        members = extendable_set(g).members
        blocked = list(blocked_precolorings(g))
        ring = g.rings[0]
        for turned in (ring, ring[::-1]):
            for i in range(len(ring)):
                h = g.with_rings((turned[i:] + turned[:i],) + g.rings[1:])
                assert extendable_set(h).members == members, (name, h.rings)
                assert list(blocked_precolorings(h)) == blocked, (name, h.rings)


def _by_ring_position(g: EmbeddedGraph, members) -> frozenset:
    """Members as tuples along ring 1, then ring 2."""
    domain = sorted(g.ring_vertices)
    at = [domain.index(v) for v in g.rings[0] + g.rings[1]]
    return frozenset(tuple(m[i] for i in at) for m in members)


def test_long_thomas_walls_chains_by_composition():
    # from four links on, the ring-to-ring relation no longer changes
    g4, _ = reduced_thomas_walls(4)
    want = _by_ring_position(g4, _direct(g4))
    assert len(want) == 180
    for n in (20, 50, 100):
        g, _ = reduced_thomas_walls(n)
        start = time.perf_counter()
        members = extendable_set(g).members
        assert time.perf_counter() - start < 5.0, n
        assert _by_ring_position(g, members) == want, n


def test_no_rings_error():
    with pytest.raises(NoRings):
        extendable_set(fixtures.k4())


def test_extendable_set_color_symmetry():
    g = fixtures.prism()
    members = extendable_set(g).members
    for perm in permutations((1, 2, 3)):
        mapped = {tuple(perm[c - 1] for c in m) for m in members}
        assert mapped == set(members)


# -- domination -------------------------------------------------------------------


def test_dominates_reflexive():
    g = fixtures.prism()
    assert dominates(g, g)


def test_extra_edge_can_break_domination():
    g = cylinder_grid(4, 2)
    rot = [list(r) for r in g.rotations]
    # diagonal of a side quad face (0,4,5,1): edge 0-5
    rot[0].insert(rot[0].index(4), 5)
    rot[5].insert(rot[5].index(1), 0)
    g2 = EmbeddedGraph(tuple(tuple(r) for r in rot), g.rings)
    assert dominates(g2, g)  # subgraph relation: g2's colorings restrict
    assert not dominates(g, g2)  # the diagonal kills some extensions


def _shared_ring_corpus():
    corpus = [g for _, g in fixtures.cylinder_corpus()]
    sig = _ring_signature(fixtures.prism())
    return [g for g in corpus if _ring_signature(g) == sig]


def test_dominates_matches_set_inclusion():
    graphs = _shared_ring_corpus()
    members = [brute_ring_members(g) for g in graphs]
    verdicts = set()
    for g1, m1 in zip(graphs, members):
        for g2, m2 in zip(graphs, members):
            verdict = dominates(g1, g2)
            assert verdict == (m1 <= m2)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dominates_under_matches_set_inclusion():
    graphs = _shared_ring_corpus()[:20]
    members = [brute_ring_members(g) for g in graphs]
    for g1, m1 in zip(graphs, members):
        for g2, m2 in zip(graphs, members):
            perm = list(reversed(range(g2.n)))
            ring_map = {perm[v]: v for v in g2.ring_vertices}
            assert dominates_under(g1, relabel(g2, perm), ring_map) == (m1 <= m2)


def test_dominates_ring_mismatch():
    with pytest.raises(RingMismatch):
        dominates(fixtures.prism(), cylinder_grid(4, 2))


def test_dominates_under_requires_ring_map():
    g = fixtures.prism()
    with pytest.raises(RingMismatch):
        dominates_under(g, g, {v: v for v in range(5)})


# -- triangle-free sphere colorability --------------------------------------------


def test_triangle_free_spheres_colorable():
    for name, g in fixtures.sphere_corpus():
        assert count_colorings(g, Precoloring.empty()) > 0, name
