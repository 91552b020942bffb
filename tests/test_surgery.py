"""Surgery operations: identifications, contractions, chains, cutting."""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcolor import surgery
from cylcolor._canon import canonical_form
from cylcolor.analysis import is_critical
from cylcolor.coloring import (
    Precoloring,
    dominates_under,
    extend,
    members_over,
)
from cylcolor.embedding import (
    CycleRef,
    EmbeddedGraph,
    canon_cycle,
    distance,
    emit_emg,
    enumerate_short_cycles,
    parse_emg_stream,
    relabel,
    rotation_system_from_faces,
    trace_faces,
)
from cylcolor.errors import (
    CylColorError,
    DiagonalAdjacent,
    InvalidParameter,
    MalformedRotation,
    NoSuchCycle,
    NotAFace,
    NotALadder,
    NotTame,
    NotTrianglePair,
    NothingToExtract,
    PreconditionFailed,
    RingVertex,
)
from cylcolor.families import cylinder_grid, frame, reduced_thomas_walls
from cylcolor.surgery import (
    audit_chain,
    chain_decompose,
    collapse_triangle_pair,
    cut_step,
    distance_classes,
    identify_across_face,
    identify_across_face_mapped,
    ladder_contract,
    maximal_critical_subgraph,
    _maximal_critical_mapped,
    shortest_layer_cycle,
)

import fixtures
from oracles import (
    _ref_members,
    max_chain_exhaustive,
    reference_identified_edges,
    reference_is_critical,
    reference_maximal_critical,
    reference_near_quad33,
)


def internal_quads(g: EmbeddedGraph):
    fl = trace_faces(g)
    return [
        f for i, f in enumerate(fl.faces) if len(f) == 4 and i not in fl.ring_faces
    ]


# -- identify_across_face ---------------------------------------------------------


def test_identify_dominates_on_grid():
    g = cylinder_grid(4, 4)
    for f in internal_quads(g):
        for diag in ("13", "24"):
            out, remap = identify_across_face_mapped(g, f, diag)
            ring_map = {v: remap[v] for v in g.ring_vertices}
            assert dominates_under(out, g, ring_map), (f, diag)


def test_identify_lifting():
    # every coloring of the identified graph lifts by copying the merged color
    g = cylinder_grid(4, 3)
    f = internal_quads(g)[0]
    out, remap = identify_across_face_mapped(g, f, "13")
    col = extend(out, Precoloring.empty())
    assert col is not None
    lifted = {v: col[remap[v]] for v in range(g.n)}
    for u, v in g.edges():
        assert lifted[u] != lifted[v]


def test_identify_merges_parallel_edge():
    # vertex 4 is adjacent to both ends of the diagonal with an empty
    # 4-face on one side, so both doubled edges collapse and the result
    # is the simple star around the merged vertex
    faces = [(0, 1, 2, 3), (0, 4, 2, 1), (0, 3, 2, 4)]
    g = EmbeddedGraph(rotation_system_from_faces(faces, 5))
    out = identify_across_face(g, (0, 1, 2, 3), "13")
    assert out.n == 4 and out.edge_count == 3
    assert all(len(set(r)) == len(r) for r in out.rotations)
    assert sorted(out.neighbors(0)) == [1, 2, 3]  # the merged hub
    # vertex 4 is a lens: the merged vertex keeps its own edge to it, not
    # the dropped vertex 2's, so the hub turns as vertex 0 did
    out, remap = identify_across_face_mapped(g, (0, 1, 2, 3), "13")
    assert remap[2] == remap[0] == 0
    own = tuple(remap[u] for u in g.rotations[0])
    assert out.rotations[0] in {own[i:] + own[:i] for i in range(3)}


def test_identify_wheel_stays_simple():
    # the wheel W4: identifying opposite rim vertices doubles the spoke,
    # which simplifies to a single edge in a valid sphere map
    faces = [(0, 1, 2, 3), (1, 0, 4), (2, 1, 4), (3, 2, 4), (0, 3, 4)]
    g = EmbeddedGraph(rotation_system_from_faces(faces, 5))
    out = identify_across_face(g, (0, 1, 2, 3), "13")
    assert out.n == 4 and out.edge_count == 5
    assert all(len(set(r)) == len(r) for r in out.rotations)


def test_identify_rejects_non_face():
    g = cylinder_grid(4, 3)
    with pytest.raises(NotAFace):
        identify_across_face(g, (0, 1, 2, 3), "13")  # a ring, not internal
    with pytest.raises(NotAFace):
        identify_across_face(g, (0, 1, 6, 11), "13")


def test_identify_rejects_adjacent_diagonal():
    # quad face plus its diagonal drawn on the other side of the sphere
    faces = [(0, 1, 2, 3), (2, 1, 0), (2, 0, 3)]
    g = EmbeddedGraph(rotation_system_from_faces(faces, 4))
    with pytest.raises(DiagonalAdjacent):
        identify_across_face(g, (0, 1, 2, 3), "13")


def test_identify_rejects_both_ring_vertices():
    g = cylinder_grid(4, 2)
    f = internal_quads(g)[0]
    with pytest.raises(RingVertex):
        identify_across_face(g, f, "13")


def _diagonals(f):
    return (("13", (f[0], f[2])), ("24", (f[1], f[3])))


def _is_lens(g: EmbeddedGraph, face, pair) -> bool:
    """Do the ends of the diagonal have a common neighbour off the face?"""
    a, b = pair
    return bool(set(g.neighbors(a)) & set(g.neighbors(b)) - set(face))


def test_identify_matches_networkx_contraction():
    # every identification of the cylinder fixtures (quad33 <= 8 among
    # them), lenses included, has the simple graph networkx gets by
    # merging the two vertices
    lenses = done = 0
    for name, g in fixtures.cylinder_corpus():
        for f in internal_quads(g):
            for diag, (a, b) in _diagonals(f):
                try:
                    out, remap = identify_across_face_mapped(g, f, diag)
                except (DiagonalAdjacent, RingVertex):
                    continue
                assert remap[a] == remap[b], (name, f, diag)
                back = {remap[v]: v for v in range(g.n) if v != b}
                pulled = {frozenset((back[u], back[v])) for u, v in out.edges()}
                assert pulled == reference_identified_edges(g, a, b), (name, f, diag)
                done += 1
                lenses += _is_lens(g, f, (a, b))
    assert done > 250 and lenses > 20  # 291 and 26


def _merge_records() -> list[str]:
    """EMG and id map, or the error's name, of every lens-free
    identification of the cylinder fixtures, and of every collapse of a
    non-contractible triangle pair sharing one vertex in a fixture or in
    one of those identifications."""
    parts = []

    def record(fn, *args):
        try:
            out, remap = fn(*args)
        except CylColorError as exc:
            parts.append(type(exc).__name__)
            return None
        parts.append(emit_emg(out) + repr(sorted(remap.items())))
        return out

    for _, g in fixtures.cylinder_corpus():
        inputs = [g]
        for f in internal_quads(g):
            for diag, pair in _diagonals(f):
                if not _is_lens(g, f, pair):
                    inputs.append(record(identify_across_face_mapped, g, f, diag))
        for h in filter(None, inputs):
            tris = [t.vertices for t in enumerate_short_cycles(h, 3) if not t.contractible]
            for t1 in tris:
                for t2 in tris:
                    if len(set(t1) & set(t2)) == 1:
                        record(surgery._collapse_mapped, h, t1, t2)
    return parts


# sha256 of ``_merge_records()``, one per line, computed when a merge
# still tried every pairing of the doubled edges' copies: without a lens
# the merge rule must give the same maps and id maps, byte for byte
_MERGE_DIGEST = "b41997cd13c30c2fa291e000429b915c0e1e2bcd97e3563cd321ac4539ba28c5"


def test_lens_free_merges_are_pinned():
    records = _merge_records()
    assert len(records) > 1500
    stream = "\n".join(records)
    assert hashlib.sha256(stream.encode("ascii")).hexdigest() == _MERGE_DIGEST


# quad33 graphs on 9 vertices whose diagonal has one end on a ring, so the
# ring fixes which vertex survives, and whose ends have a third common
# neighbour (vertex 0 and vertex 2, respectively)
_LENS_CASES = [
    (
        ((1, 2, 6, 8, 3), (0, 2), (0, 1, 3, 4), (0, 7, 4, 5, 2), (2, 5, 3, 6),
         (3, 4), (0, 4, 7), (3, 8, 6), (0, 7)),
        (3, 4, 6, 7),
        (3, 6),
    ),
    (
        ((1, 2, 3), (0, 2), (0, 1, 3, 6, 8, 4), (0, 4, 5, 2), (2, 7, 5, 3),
         (3, 4, 6), (2, 5, 7), (4, 8, 6), (2, 7)),
        (4, 5, 6, 7),
        (4, 6),
    ),
]


@pytest.mark.parametrize("rotations,face,diagonal", _LENS_CASES)
def test_lens_identification_is_label_independent(rotations, face, diagonal):
    g = EmbeddedGraph(rotations, ((0, 1, 2), (3, 4, 5)))
    diag = next(name for name, pair in _diagonals(face) if pair == diagonal)
    forms = set()
    for seed in range(6):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        out = identify_across_face(relabel(g, perm), [perm[v] for v in face], diag)
        forms.add(canonical_form(out))
    assert len(forms) == 1


# -- distance classes and layer cycles ----------------------------------------------


def test_distance_classes_prism():
    dc = distance_classes(fixtures.prism(), 0)
    assert dc.classes == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_distance_classes_grid():
    dc = distance_classes(cylinder_grid(4, 5), 0)
    assert len(dc) == 5
    for a in range(5):
        assert dc[a] == frozenset(range(4 * a, 4 * a + 4))
    for ring_index in (-1, -3, 2):
        with pytest.raises(InvalidParameter):
            distance_classes(cylinder_grid(4, 5), ring_index)


def test_shortest_layer_cycle_grid():
    g = cylinder_grid(4, 7)
    q = shortest_layer_cycle(g, 3)
    assert canon_cycle(q.vertices) == canon_cycle(tuple(range(12, 16)))
    assert not q.contractible


def test_shortest_layer_cycle_hex_grid():
    g = cylinder_grid(6, 7)
    q = shortest_layer_cycle(g, 3)
    assert len(q.vertices) == 6
    assert set(q.vertices) == set(range(18, 24))


def test_shortest_layer_cycle_at_ring():
    g = cylinder_grid(4, 5)
    q = shortest_layer_cycle(g, 0)
    assert canon_cycle(q.vertices) == canon_cycle(g.rings[0])


def test_shortest_layer_cycle_missing():
    g = fixtures.hub_hexagon()
    with pytest.raises(NoSuchCycle):
        shortest_layer_cycle(g, 1)
    for a in (-1, -6, -7):  # a negative layer must not index from the last one
        with pytest.raises(NoSuchCycle):
            shortest_layer_cycle(cylinder_grid(5, 6), a)


# -- ladder contraction ---------------------------------------------------------------


def test_ladder_contract_even():
    g = cylinder_grid(6, 8)
    q2 = tuple(range(12, 18))
    q3 = tuple(range(18, 24))
    out = ladder_contract(g, q2, q3)
    # k=6: the staircase x1,y2,x3 merges three vertices into one
    assert out.n == g.n - 2


def test_ladder_contract_odd():
    g = cylinder_grid(5, 6)
    q2 = tuple(range(10, 15))
    q3 = tuple(range(15, 20))
    out = ladder_contract(g, q2, q3)
    assert out.n == g.n - 2  # k=5: x1,y2,x3 identified


def test_ladder_contract_k4_is_identity():
    g = cylinder_grid(4, 6)
    out = ladder_contract(g, tuple(range(8, 12)), tuple(range(12, 16)))
    assert out.n == g.n  # k=4: the staircase is a single vertex


def test_ladder_contract_dominates():
    from cylcolor.surgery import _ladder_contract_mapped

    g = cylinder_grid(5, 4)
    out, total = _ladder_contract_mapped(g, tuple(range(5, 10)), tuple(range(10, 15)))
    ring_map = {v: total[v] for v in g.ring_vertices}
    assert dominates_under(out, g, ring_map)


def test_ladder_contract_new_short_cycle():
    g = cylinder_grid(5, 6)
    out = ladder_contract(g, tuple(range(10, 15)), tuple(range(15, 20)))
    ring_canons = {canon_cycle(r) for r in out.rings}
    extra = [
        r
        for r in enumerate_short_cycles(out, 4, only_noncontractible=True)
        if canon_cycle(r.vertices) not in ring_canons
    ]
    assert extra


def test_ladder_contract_rejects_nonladder():
    g = cylinder_grid(4, 4)
    with pytest.raises(NotALadder):
        ladder_contract(g, (0, 1, 2, 3), (8, 9, 10, 11))  # layers not adjacent
    with pytest.raises(NotALadder):
        ladder_contract(fixtures.prism(), (0, 1, 2), (3, 4, 5))  # triangles
    for q2, q3 in [((0, 1, 2, 99), (4, 5, 6, 7)), ((-12, 5, 6, 7), (8, 9, 10, 11))]:
        with pytest.raises(NotALadder, match="outside"):
            ladder_contract(g, q2, q3)  # vertices not in the graph


# -- collapse of a triangle pair --------------------------------------------------------


def test_collapse_shared_vertex_pair():
    g = fixtures.shared_vertex_quad33()
    out = collapse_triangle_pair(g, (0, 1, 2), (0, 3, 4))
    assert out.n == 3 and out.edge_count == 3
    assert len(out.rings) == 2  # both rings became the merged triangle


def test_collapse_back_extension():
    # every coloring of the collapsed graph pulls back across the
    # quadrangulated region
    from cylcolor.surgery import _collapse_mapped
    from oracles import brute_extends

    g = fixtures.shared_vertex_quad33()
    out, remap = _collapse_mapped(g, (0, 1, 2), (0, 3, 4))
    for member in members_over(out, tuple(sorted(out.ring_vertices))):
        coloring = dict(zip(sorted(out.ring_vertices), member))
        pulled = {v: coloring[remap[v]] for v in range(g.n) if v in remap}
        assert brute_extends(g, pulled)


def test_collapse_rejects_same_triangle():
    g = fixtures.shared_vertex_quad33()
    with pytest.raises(NotTrianglePair):
        collapse_triangle_pair(g, (0, 1, 2), (0, 1, 2))


def test_collapse_rejects_disjoint():
    g = fixtures.prism()
    with pytest.raises(NotTrianglePair):
        collapse_triangle_pair(g, (0, 1, 2), (3, 4, 5))


# -- maximal critical subgraph -----------------------------------------------------------


def test_maximal_critical_removes_subdivision():
    g = fixtures.subdivided_prism()
    out = maximal_critical_subgraph(g)
    assert out.n == 6  # the degree-2 vertex is gone
    from cylcolor.analysis import is_critical

    assert is_critical(out).is_critical


def test_maximal_critical_fixpoint_on_critical_input():
    g = cylinder_grid(4, 2)  # the cube is critical
    out = maximal_critical_subgraph(g)
    assert out == g


def test_maximal_critical_matches_set_equality_oracle():
    # the corpus holds every quad33 graph on at most 8 vertices
    shrunk = 0
    corpus = fixtures.cylinder_corpus() + [("subdivided-prism", fixtures.subdivided_prism())]
    for name, g in corpus:
        try:
            want = reference_maximal_critical(g)
        except NothingToExtract:
            with pytest.raises(NothingToExtract):
                _maximal_critical_mapped(g)
            continue
        assert _maximal_critical_mapped(g) == want, name
        shrunk += want[0].n < g.n or want[0].edge_count < g.edge_count
    assert shrunk


# -- deletion tests with proven-felt certificates ---------------------------------


@functools.cache
def _certificate_corpus() -> tuple[EmbeddedGraph, ...]:
    """Cylinder graphs with many non-critical members, where an unsound
    certificate would accept a felt deletion or skip an unfelt one."""
    graphs = [g for _, g in fixtures.cylinder_corpus()]
    graphs += reference_near_quad33(8)[::6]  # variants of bases on <= 8 vertices
    graphs += [fixtures.penta_tube(k) for k in (2, 3)]
    return tuple(graphs)


def _relabeled(g: EmbeddedGraph, seed) -> EmbeddedGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def _without(rows, x) -> list:
    """Oracle adjacency of ``rows`` with x, a vertex or a frozenset edge, removed."""
    gone = set() if isinstance(x, frozenset) else {x}
    cut = {tuple(x), tuple(x)[::-1]} if isinstance(x, frozenset) else set()
    adj = [()] * (max(rows) + 1)
    for v, row in rows.items():
        if v not in gone:
            adj[v] = tuple(u for u in row if u not in gone and (v, u) not in cut)
    return adj


def test_certified_deletions_match_set_equality_oracles():
    # the oracles recompute the whole extendable set after each deletion
    noncritical = shrunk = 0
    for i, g in enumerate(_certificate_corpus()):
        h = _relabeled(g, f"certificates/{i}")
        rep = is_critical(h, guard=30)
        assert rep == reference_is_critical(h), i
        noncritical += not rep.is_critical
        try:
            want = reference_maximal_critical(h)
        except NothingToExtract:
            with pytest.raises(NothingToExtract):
                _maximal_critical_mapped(h, guard=30)
            continue
        assert _maximal_critical_mapped(h, guard=30) == want, i
        shrunk += want[0].edge_count < h.edge_count
    assert noncritical > 50 and shrunk > 50


def test_certified_felt_deletions_are_felt():
    # each deletion a coloring proves felt is checked, in the graph where
    # it was proved, against the oracle's set of the graph
    unchanged = surgery._DeletionTest.unchanged
    proved = []  # (rows, deletion)
    checked = 0

    def recording(self, rows, x):
        before = set(self.felt)
        out = unchanged(self, rows, x)
        frozen = {v: tuple(row) for v, row in rows.items()}
        proved.extend((frozen, x) for x in self.felt - before)
        return out

    for i, g in enumerate(_certificate_corpus()):
        h = _relabeled(g, f"certificates/{i}")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surgery._DeletionTest, "unchanged", recording)
            is_critical(h, guard=30)
            try:
                _maximal_critical_mapped(h, guard=30)
            except NothingToExtract:
                pass
        base = _ref_members(h.rotations, h)
        for rows, x in proved:
            assert _ref_members(_without(rows, x), h) != base, (i, x)
        checked += len(proved)
        proved.clear()
    assert checked > 1000


def _proven_felt(rows, x, col, ring_vs) -> set:
    """Deletions that a coloring ``col`` of the graph ``rows`` minus ``x``
    proves felt, by brute force: each non-ring vertex w on every
    monochromatic edge, and the edge and non-ring ends of every
    single-defect coloring (monochromatic on exactly one edge) that the
    walk meets.  One walk starts from each such w recolored in each
    color; from a single-defect coloring on wu reached by recoloring w
    it tries u in each color, depth first, and takes each defect edge
    the first time it is met.  The monochromatic edges are recomputed
    from scratch after each recoloring."""
    edges = {frozenset((v, u)) for v, row in rows.items() for u in row}

    def mono(colors):
        return [e for e in edges if len({colors[v] for v in e}) == 1]

    out = set()

    def reach(colors, v, seen, todo):
        # ``colors`` has v just recolored
        left = mono(colors)
        assert left, "a blocked precoloring extends to the whole graph"
        if len(left) == 1 and left[0] not in seen:
            seen.add(left[0])
            out.add(left[0])
            (u,) = left[0] - {v}
            if u not in ring_vs:
                out.add(u)
                todo.append((colors, u))

    first = mono(col)
    assert first, "a blocked precoloring extends to the whole graph"
    for w in sorted(set.intersection(*map(set, first)) - ring_vs):
        out.add(w)
        for c in (1, 2, 3):
            seen, todo = set(), []
            reach({**col, w: c}, w, seen, todo)
            while todo:
                colors, u = todo.pop()
                for k in (1, 2, 3):
                    reach({**colors, u: k}, u, seen, todo)
    return out


def _one_step_felt(rows, col, ring_vs) -> set:
    """Deletions that a coloring ``col`` of the graph ``rows`` minus one
    vertex or edge proves felt after at most one recoloring: for each
    non-ring vertex on every monochromatic edge, recolored in each color,
    the non-ring vertices on every monochromatic edge left, and that edge
    when one is left.  Unlike the walk's, this set does not depend on the
    order of any traversal."""
    edges = {frozenset((v, u)) for v, row in rows.items() for u in row}

    def mono(colors):
        return [e for e in edges if len({colors[v] for v in e}) == 1]

    out = set()
    for w in set.intersection(*map(set, mono(col))) - ring_vs:
        for c in (1, 2, 3):
            left = mono({**col, w: c})
            out.update(v for v in set.intersection(*map(set, left)) if v not in ring_vs)
            if len(left) == 1:
                out.add(left[0])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_no_deletion_is_searched_twice(seed, extract):
    graphs = _certificate_corpus()
    g = _relabeled(graphs[seed % len(graphs)], seed)
    searches = []  # one per adjacency built: the deletion, the graph, a coloring found
    build, solve = surgery._deletion_adjacency, surgery._solve_first
    walk = surgery._DeletionTest._walk
    walks = 0

    def adjacency(rows, x):
        adj = build(rows, x)
        rows = {v: tuple(row) for v, row in rows.items()}
        searches.append({"x": x, "rows": rows, "adj": adj, "col": None})
        return adj

    def kernel(adj, fixed):
        assert adj is searches[-1]["adj"]
        col = solve(adj, fixed)
        searches[-1]["col"] = searches[-1]["col"] or col
        return col

    def walking(self, rows, found, ends):
        # whatever the walk's order, it proves at least what one
        # recoloring of the coloring found proves
        nonlocal walks
        walk(self, rows, found, ends)
        assert _one_step_felt(rows, found, self.ring_vs) <= self.felt
        walks += 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_deletion_adjacency", adjacency)
        mp.setattr(surgery, "_solve_first", kernel)
        mp.setattr(surgery._DeletionTest, "_walk", walking)
        try:
            _maximal_critical_mapped(g, guard=30) if extract else is_critical(g, guard=30)
        except NothingToExtract:
            pass
    proven = set()
    for s in searches:
        # searched before, or proven felt by an earlier coloring
        assert s["x"] not in proven, s["x"]
        proven.add(s["x"])
        if s["col"] is not None:
            proven |= _proven_felt(s["rows"], s["x"], s["col"], g.ring_vertices)
    assert walks == sum(s["col"] is not None for s in searches)


def test_walk_certificates_on_critical_graphs_are_felt():
    # the certificate corpus is chosen for its non-critical members; on a
    # critical graph one coloring's walk proves long chains of deletions
    # felt.  Each is checked, in the rows where it was proved, against the
    # oracle's set of the graph tested.  Every deletion of a critical
    # graph is felt, so the check bites in the cutting step, whose
    # extraction shrinks an identified tube's rows
    init, walk = surgery._DeletionTest.__init__, surgery._DeletionTest._walk
    proved = {}  # id of the graph tested -> (graph, {(rows, deletion)})

    def starting(self, g):
        init(self, g)
        self.tested = g

    def recording(self, rows, found, ends):
        before = set(self.felt)
        walk(self, rows, found, ends)
        frozen = tuple((v, tuple(row)) for v, row in rows.items())
        tested = proved.setdefault(id(self.tested), (self.tested, set()))[1]
        tested.update((frozen, x) for x in self.felt - before)

    graphs = [reduced_thomas_walls(n)[0] for n in range(3, 7)]
    graphs += [fixtures.penta_tube(k) for k in (3, 4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery._DeletionTest, "__init__", starting)
        mp.setattr(surgery._DeletionTest, "_walk", recording)
        for i, g in enumerate(graphs):
            h = _relabeled(g, f"walk/{i}")
            assert is_critical(h, guard=40).is_critical, i
            _maximal_critical_mapped(h, guard=40)
        cut_step(_relabeled(fixtures.penta_tube(6), "walk/cut"), 3, guard=40)
    checked = shrunk = 0
    for h, tested in proved.values():
        base = _ref_members(h.rotations, h)
        for rows, x in tested:
            assert _ref_members(_without(dict(rows), x), h) != base, (h.n, x)
            shrunk += dict(rows) != dict(enumerate(h.rotations))
        checked += len(tested)
    assert checked > 400 and shrunk > 10, (checked, shrunk)  # 497 and 13


def test_extraction_never_needs_a_second_edge_pass():
    # the extraction tries each edge once: when its edge scan ends, every
    # non-ring edge left is proven felt or a bridge, and stays so after
    # each vertex deletion.  The edge scan takes an iterator that resumes;
    # each vertex scan is given a fresh list
    init, scan = surgery._DeletionTest.__init__, surgery._DeletionTest.first_unchanged
    checked = bridges = 0

    def starting(self, g):
        init(self, g)
        self.ring_edges = g.ring_edge_set()
        self.vertex_scans = 0

    def scanning(self, rows, deletions, keep_connected):
        nonlocal checked, bridges
        if keep_connected and isinstance(deletions, list):
            self.vertex_scans += 1
            G = nx.Graph((v, u) for v, row in rows.items() for u in row)
            cut = {frozenset(e) for e in nx.bridges(G)}
            for v, row in rows.items():
                for u in row:
                    e = frozenset((u, v))
                    if u < v and e not in self.ring_edges:
                        assert e in self.felt or e in cut, e
                        checked += 1
                        bridges += e not in self.felt
        elif keep_connected:
            assert self.vertex_scans == 0, "an edge scan after a vertex scan"
        return scan(self, rows, deletions, keep_connected)

    graphs = [_relabeled(g, f"certificates/{i}") for i, g in enumerate(_certificate_corpus())]
    graphs += [_relabeled(reduced_thomas_walls(n)[0], f"one-pass/{n}") for n in range(3, 7)]
    graphs += [fixtures.penta_tube(k) for k in (3, 4)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery._DeletionTest, "__init__", starting)
        mp.setattr(surgery._DeletionTest, "first_unchanged", scanning)
        for g in graphs:
            try:
                _maximal_critical_mapped(g, guard=40)
            except NothingToExtract:
                pass
        cut_step(fixtures.penta_tube(6), 3, guard=40)
    assert checked > 1000 and bridges > 0, (checked, bridges)


def test_walk_keeps_kernel_searches_few():
    # measured with the walk, in the fixture labelings; proving felt only
    # the deletions one recoloring reaches took 33, 14, 26 and 129
    solve = surgery._solve_first
    calls = 0

    def counting(adj, fixed):
        nonlocal calls
        calls += 1
        return solve(adj, fixed)

    t10, t18 = (reduced_thomas_walls(n)[0] for n in (10, 18))
    for run, bound in (
        (lambda: is_critical(fixtures.penta_tube(6), guard=40), 6),
        (lambda: is_critical(t10, guard=t10.n), 2),  # past the default guard
        (lambda: is_critical(t18, guard=t18.n), 2),
        (lambda: cut_step(fixtures.penta_tube(6), 3, guard=40), 25),
    ):
        calls = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surgery, "_solve_first", counting)
            run()
        assert calls <= bound, bound


def _low_degree_corpus() -> list[EmbeddedGraph]:
    emg = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "quad33_le10.emg"
    return list(_certificate_corpus()) + parse_emg_stream(emg.read_text(encoding="ascii"))[::20]


def test_low_degree_deletions_are_decided_without_search():
    # a non-ring vertex with at most two neighbours always keeps a free
    # color, so deleting it, or an edge at it, never changes the set; any
    # other deletion still needs its search and must agree with the oracle
    def no_search(*args, **kwargs):
        raise AssertionError("a low-degree deletion was searched")

    low = 0
    for i, g in enumerate(_low_degree_corpus()):
        rows = dict(enumerate(g.rotations))
        ring_vs = g.ring_vertices
        base = _ref_members(g.rotations, g)
        test = surgery._DeletionTest(g)
        ring_edges = g.ring_edge_set()
        deletions = [v for v in rows if v not in ring_vs]
        deletions += [frozenset(e) for e in g.edges() if frozenset(e) not in ring_edges]
        for x in deletions:
            ends = tuple(x) if isinstance(x, frozenset) else (x,)
            unchanged = _ref_members(_without(rows, x), g) == base
            if not any(w not in ring_vs and len(rows[w]) <= 2 for w in ends):
                assert test.unchanged(rows, x) == unchanged, (i, x)
                continue
            low += 1
            assert unchanged, (i, x)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(surgery, "_deletion_adjacency", no_search)
                mp.setattr(surgery, "_solve_first", no_search)
                assert test.unchanged(rows, x), (i, x)
    assert low > 100


def test_maximal_critical_nothing_to_extract():
    g = cylinder_grid(4, 6)  # rings far apart: every precoloring extends
    with pytest.raises(NothingToExtract):
        maximal_critical_subgraph(g, guard=30)


# -- chain decomposition ------------------------------------------------------------------


def test_chain_grid():
    g = cylinder_grid(4, 5)
    cd = chain_decompose(g)
    assert cd.n == 4
    assert audit_chain(g, cd) == []
    assert cd.n == max_chain_exhaustive(g)


def test_chain_trivial_when_no_interior_cycle():
    g = fixtures.penta_tube(1)
    cd = chain_decompose(g)
    assert cd.n == 1
    assert audit_chain(g, cd) == []


def test_chain_framed_reduced():
    g, pairs = reduced_thomas_walls(3)
    f = frame(g, pairs, ((True, True), (True, True)))
    cd = chain_decompose(f)
    assert cd.n >= 2
    assert audit_chain(f, cd) == []


def test_chain_prism_triangles_are_cuts():
    g = fixtures.prism()
    cd = chain_decompose(g)
    assert audit_chain(g, cd) == []
    assert {canon_cycle(c.vertices) for c in cd.cutting_cycles} >= {
        canon_cycle((0, 1, 2)),
        canon_cycle((3, 4, 5)),
    }


def test_chain_exhaustive_matches_on_small():
    for name, g in fixtures.cylinder_corpus():
        if g.n > 12 or len(g.rings) != 2:
            continue
        if not all(len(r) <= 4 for r in g.rings):
            continue
        if set(g.rings[0]) & set(g.rings[1]):
            continue  # no chain exists when the rings intersect
        from cylcolor.embedding import is_tame

        if not is_tame(g):
            continue
        cd = chain_decompose(g)
        assert cd.n == max_chain_exhaustive(g), name
        assert audit_chain(g, cd) == [], name


def test_audit_chain_reports_tampered_chains():
    g = cylinder_grid(4, 5)
    cd = chain_decompose(g)
    assert cd.n >= 3
    cycles = list(cd.cutting_cycles)
    cycles[1], cycles[2] = cycles[2], cycles[1]
    swapped = audit_chain(g, replace(cd, cutting_cycles=tuple(cycles)))
    assert "cycle 1 fails to separate 0 from 2" in swapped
    a, b, c, _ = cd.cutting_cycles[2].vertices
    for bad in ((a, b, c), (a, b, g.n)):  # a missing edge, a vertex out of range
        cycles = list(cd.cutting_cycles)
        cycles[2] = CycleRef(bad, False)
        broken = audit_chain(g, replace(cd, cutting_cycles=tuple(cycles)))
        assert f"{bad} is not a cycle" in broken


def test_chain_rejects_untame():
    with pytest.raises(NotTame):
        chain_decompose(fixtures.prism_contractible_triangle())


def test_chain_rejects_intersecting_rings():
    g, _ = reduced_thomas_walls(2)  # its rings share one vertex
    with pytest.raises(InvalidParameter):
        chain_decompose(g)


# -- cut step ---------------------------------------------------------------------------


def test_cut_step_rejects_noncritical():
    g = cylinder_grid(4, 6)
    with pytest.raises(PreconditionFailed) as err:
        cut_step(g, 3, guard=30)
    assert "critical" in str(err.value)


def test_cut_step_rejects_interior_short_cycles():
    g = cylinder_grid(4, 3)
    with pytest.raises(PreconditionFailed) as err:
        cut_step(g, 2, guard=22)
    assert "critical" in str(err.value) or "cycles" in str(err.value)


def test_cut_step_rejects_short_distance():
    g = cylinder_grid(4, 2)  # critical, but rings at distance 1
    with pytest.raises(PreconditionFailed) as err:
        cut_step(g, 3)
    assert "distance" in str(err.value)


def test_cut_step_tube_distance_clause():
    g = fixtures.penta_tube(2)
    with pytest.raises(PreconditionFailed) as err:
        cut_step(g, 5, guard=30)
    assert "distance" in str(err.value)


def test_cut_step_tube_no_applicable_step():
    # every precondition holds, but the cylinder is too short for either
    # route of the cutting argument
    g = fixtures.penta_tube(2)
    with pytest.raises(PreconditionFailed) as err:
        cut_step(g, 3, guard=30)
    assert "no identification or ladder step" in str(err.value)


@pytest.mark.slow
def test_cut_step_full_pipeline():
    g = fixtures.penta_tube(6)
    out = cut_step(g, 3, guard=40)
    assert out.n < g.n
    ring_canons = {canon_cycle(r) for r in out.rings}
    extra = [
        r
        for r in enumerate_short_cycles(out, 4, only_noncontractible=True)
        if canon_cycle(r.vertices) not in ring_canons
    ]
    assert extra
    assert distance(out, out.rings[0], out.rings[1]) >= 5


# sha256 of the cutting step's EMG output, computed when every deletion
# test still ran a kernel search: the local rules of the deletion test
# must not change which deletions the extraction accepts
_TUBE_CUT_DIGESTS = {
    6: "cb45add02fce9fa81c54706f9e0727598a1ff83cd31ec894a1ce2bff87655c0b",
    7: "abd61b80e1d9cad8bfcd164484e181decd8a0302b9e4e33432ffc67b85a1ad67",
}


@pytest.mark.slow
@pytest.mark.parametrize("k", sorted(_TUBE_CUT_DIGESTS))
def test_cut_step_tube_output_is_pinned(k):
    out = cut_step(fixtures.penta_tube(k), 3, guard=50)
    digest = hashlib.sha256(emit_emg(out).encode("ascii")).hexdigest()
    assert digest == _TUBE_CUT_DIGESTS[k]


# one sha256 over the cutting step's result on every case below, computed
# when the step still recursed through each graph it stepped from: the
# EMG output and sorted id map of a step that applies, the exception
# class and message of one that fails
_RELABELED_CUTS_DIGEST = "050035c0b332d22f71f3a924f1f33ffcac33f24d7fd4693a66dd99cbff551c4f"


@pytest.mark.slow
def test_cut_step_on_relabeled_tubes_is_pinned():
    digest = hashlib.sha256()
    for k in range(3, 8):
        tube = fixtures.penta_tube(k)
        for seed in range(8):
            g = _relabeled(tube, seed)
            for d0 in (3, 4):
                try:
                    out, total = surgery._cut_step_mapped(g, d0, 50, True)
                    record = emit_emg(out) + repr(sorted(total.items()))
                except CylColorError as err:
                    record = f"{type(err).__name__}: {err}"
                digest.update(record.encode("ascii"))
    assert digest.hexdigest() == _RELABELED_CUTS_DIGEST


def test_identification_keeps_the_predicted_ring_distance():
    # the cutting step builds only the identifications whose predicted
    # ring distance keeps d; every diagonal that builds is measured
    graphs = [_relabeled(fixtures.penta_tube(k), f"identify/{k}") for k in range(4, 8)]
    graphs += [cylinder_grid(c, k) for c, k in ((4, 8), (5, 7), (6, 9))]
    built = far = 0
    for g in graphs:
        d1, d2 = surgery._ring_distances(g)
        d = distance(g, g.rings[0], g.rings[1])
        for f in internal_quads(g):
            for a, b in ((f[0], f[2]), (f[1], f[3])):
                try:
                    h, _ = surgery._identify_mapped(g, f, (a, b))
                except (MalformedRotation, DiagonalAdjacent, RingVertex):
                    continue
                want = surgery._identified_distance(d1, d2, d, a, b)
                assert distance(h, h.rings[0], h.rings[1]) == want, (g.n, f, a, b)
                built += 1
                far += min(d1[a], d2[a], d1[b], d2[b]) >= 3
    assert far > 50 and built > far, (built, far)


def test_cut_step_lays_out_each_graph_once():
    # the step from penta_tube(6) identifies twice and scans three graphs:
    # the input, the graph it steps from next, and the result
    counts = {"_identify_mapped": 0, "enumerate_short_cycles": 0}

    def counting(name):
        real = getattr(surgery, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        for name in counts:
            mp.setattr(surgery, name, counting(name))
        cut_step(fixtures.penta_tube(6), 3, guard=40)
    assert counts["_identify_mapped"] <= 2, counts
    assert counts["enumerate_short_cycles"] <= 3, counts
