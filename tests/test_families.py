"""Family constructors and generators against structure and oracles."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from cylcolor._canon import canonical_form
from cylcolor.coloring import Precoloring, count_colorings
from cylcolor.embedding import (
    EmbeddedGraph,
    canon_cycle,
    distance,
    emit_emg,
    enumerate_short_cycles,
    is_tame,
    parse_emg_stream,
)
from cylcolor import families
from cylcolor.errors import (
    EdgeNotOnRing,
    EulerViolation,
    InvalidParameter,
    NotIndependent,
    RingVertex,
    TooManyRings,
    WrongDegree,
)
from cylcolor.families import (
    FRAME_CHOICES,
    _Table,
    _fill_disk,
    _isomorph_free,
    _quad33_cut,
    _quad33_symmetries,
    attach_pendant_ring,
    cylinder_grid,
    frame,
    generate_framed_patched,
    generate_hexagon_disks,
    generate_near_quad33,
    generate_patches,
    generate_quad33,
    is_quad33,
    near_quad33,
    near_quad33_decomposition,
    patch_graph,
    patch_ring_variants,
    reduced_thomas_walls,
    thomas_walls,
)

import fixtures
from oracles import (
    atlas_quad33_count,
    brute_count,
    reference_cut_is_shortest,
    reference_hexagon_disks,
    reference_near_quad33,
    reference_quad33,
)

FULL = os.environ.get("CYLCOLOR_FULL_ACCEPTANCE") == "1"


# -- Thomas-Walls chain ---------------------------------------------------------


def test_t1_is_k4():
    assert canonical_form(thomas_walls(1)) == canonical_form(fixtures.k4())


def test_tn_sizes():
    # the replacement step removes one edge and adds three vertices, six edges
    for n in range(1, 6):
        g = thomas_walls(n)
        assert g.n == 3 * n + 1
        assert g.edge_count == 5 * n + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tn_is_4_critical(n):
    g = thomas_walls(n)
    assert count_colorings(g, Precoloring.empty()) == 0
    for u, v in g.edges():
        adj = [
            tuple(x for x in row if not (w == u and x == v) and not (w == v and x == u))
            for w, row in enumerate(g.rotations)
        ]
        from cylcolor.coloring import _solve_first

        assert _solve_first(adj, {}) is not None, (n, u, v)


def test_t2_against_oracle():
    g = thomas_walls(2)
    assert brute_count(g, {}) == 0


def test_reduced_t1_is_four_cycle():
    g, pairs = reduced_thomas_walls(1)
    assert g.n == 4 and g.edge_count == 4
    assert len(g.rings) == 2
    assert pairs.first == (0, 1) and pairs.second == (2, 3)


def test_reduced_is_tn_minus_interface_diagonals():
    for n in (2, 3, 4, 5):
        g, pairs = reduced_thomas_walls(n)
        t = thomas_walls(n)
        missing = {frozenset(pairs.first), frozenset(pairs.second)}
        assert {frozenset(e) for e in t.edges()} - {
            frozenset(e) for e in g.edges()
        } == missing


def test_reduced_rings_chordless():
    g, _ = reduced_thomas_walls(2)
    for ring in g.rings:
        for i in range(4):
            for j in range(i + 2, 4):
                if (i, j) != (0, 3):
                    assert not g.has_edge(ring[i], ring[j])


def test_reduced_interface_degrees():
    g, pairs = reduced_thomas_walls(3)
    for v in pairs.first + pairs.second:
        assert g.degree(v) == 2


def test_reduced_triangle_free():
    for n in (2, 3, 4):
        g, _ = reduced_thomas_walls(n)
        assert enumerate_short_cycles(g, 3) == []


def test_invalid_parameter():
    with pytest.raises(InvalidParameter):
        thomas_walls(0)
    with pytest.raises(InvalidParameter):
        reduced_thomas_walls(0)


# -- patches ---------------------------------------------------------------------


def test_patch_counts():
    assert len(generate_patches(0)) == 0
    assert len(generate_patches(1)) == 1
    # one patch with a single hub; three more with two internal vertices
    assert len(generate_patches(2)) == 4


def test_smallest_patch_is_hub():
    patch = generate_patches(1)[0]
    assert canonical_form(patch) == canonical_form(fixtures.hub_hexagon())


def test_patches_validate():
    for patch in generate_patches(3):
        ring = patch.rings[0]
        assert len(ring) == 6
        for i in range(6):
            for j in range(i + 2, 6):
                if (i, j) != (0, 5):
                    assert not patch.has_edge(ring[i], ring[j])
        fl = patch.faces
        for i, f in enumerate(fl.faces):
            if i not in fl.ring_faces:
                assert len(f) == 4
        assert enumerate_short_cycles(patch, 3) == []


def test_disk_generators_reject_negative_bound():
    for generate in (generate_patches, generate_hexagon_disks):
        with pytest.raises(InvalidParameter):
            generate(-1)


def test_hexagon_disks_include_chorded():
    disks = generate_hexagon_disks(1)
    # chordless hub, chorded hexagon, chord plus one internal vertex
    assert len(disks) == 3
    canons = {canonical_form(d) for d in disks}
    assert canonical_form(fixtures.chord_hexagon()) in canons
    assert canonical_form(fixtures.hub_hexagon()) in canons


@pytest.mark.parametrize("max_internal", range(6))
def test_hexagon_disks_match_unfiltered_reference(max_internal):
    got = [canonical_form(d) for d in generate_hexagon_disks(max_internal)]
    want = [canonical_form(d) for d in reference_hexagon_disks(max_internal)]
    assert got == want


@pytest.mark.skipif(not FULL, reason="six internal vertices take seconds")
def test_hexagon_disk_count_at_six():
    assert len(generate_hexagon_disks(6)) == 4053


def test_hexagon_disks_canonicalize_one_filling_per_boundary_orbit(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return canonical_form(m)

    monkeypatch.setattr(families, "canonical_form", counted)
    assert len(generate_hexagon_disks(4)) == 178
    assert len(calls) == 192  # of 1 802 fillings


# -- patching ---------------------------------------------------------------------


def test_patch_graph_empty_is_identity():
    g, _ = reduced_thomas_walls(3)
    assert patch_graph(g, []) == g


def test_patch_graph_hub():
    g, pairs = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    pg = patch_graph(g, [(4, hub)])
    assert pg.n == g.n + 3
    assert enumerate_short_cycles(pg, 3) == []  # stays triangle-free
    fl = pg.faces
    assert sorted(len(f) for f in fl.faces).count(4) >= 5


def test_patch_graph_interface_untouched():
    g, pairs = reduced_thomas_walls(4)
    hub = generate_patches(1)[0]
    pg = patch_graph(g, [(4, hub)])
    # interface vertices have degree two before and after
    for ring in pg.rings:
        deg2 = [v for v in ring if pg.degree(v) == 2]
        assert len(deg2) == 2


def test_patch_graph_rejects_adjacent_placements():
    g, _ = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    with pytest.raises(NotIndependent):
        patch_graph(g, [(4, hub), (5, hub)])


def test_patch_graph_rejects_ring_vertex():
    g, _ = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    with pytest.raises(RingVertex):
        patch_graph(g, [(2, hub)])


def test_patch_graph_rejects_wrong_degree():
    g = fixtures.hub_hexagon().with_rings(())
    gg = EmbeddedGraph(g.rotations, rings=((0, 1, 2, 3, 4, 5),))
    hub = generate_patches(1)[0]
    # vertex 1 has degree 2
    with pytest.raises((WrongDegree, RingVertex)):
        patch_graph(gg, [(1, hub)])


def test_patch_variants_two_hub_alignments():
    g, _ = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    outs = {canonical_form(patch_graph(g, [(4, v)])) for v in patch_ring_variants(hub)}
    assert len(outs) == 2


# -- framing ---------------------------------------------------------------------


def test_frame_all_new_adds_four():
    g, pairs = reduced_thomas_walls(2)
    f = frame(g, pairs, ((True, True), (True, True)))
    assert f.n == g.n + 4
    assert len(f.rings) == 2 and all(len(r) == 4 for r in f.rings)


def test_frame_all_reuse_is_redesignation():
    g, pairs = reduced_thomas_walls(2)
    f = frame(g, pairs, ((False, False), (False, False)))
    assert f.rotations == g.rotations
    assert {canon_cycle(r) for r in f.rings} == {canon_cycle(r) for r in g.rings}


def test_framed_t2_has_interior_short_cycle():
    g, pairs = reduced_thomas_walls(2)
    f = frame(g, pairs, ((True, True), (True, True)))
    ring_canons = {canon_cycle(r) for r in f.rings}
    others = [
        r.vertices
        for r in enumerate_short_cycles(f, 4, only_noncontractible=True)
        if canon_cycle(r.vertices) not in ring_canons
    ]
    assert others  # the old rings stayed non-contractible


@pytest.mark.parametrize("above", [8, 11, 13])
def test_framed_enumeration_above_a_size_is_the_filtered_enumeration(above):
    # members and recipes in the same order as the whole enumeration
    got = [(g.rotations, g.rings, r) for g, r in families.enumerate_framed_patched(14, 2, above)]
    want = [
        (g.rotations, g.rings, r)
        for g, r in families.enumerate_framed_patched(14, 2)
        if g.n > above
    ]
    assert got == want


def test_frame_preserves_interior_faces():
    g, pairs = reduced_thomas_walls(3)
    f = frame(g, pairs, ((True, True), (True, False)))
    old_internal = {
        canon_cycle(face)
        for i, face in enumerate(g.faces.faces)
        if i not in g.faces.ring_faces
    }
    new_faces = {canon_cycle(face) for face in f.faces.faces}
    assert old_internal <= new_faces


def test_patching_keeps_triangle_free():
    g, _ = reduced_thomas_walls(4)
    spots = [v for v in range(g.n) if v not in g.ring_vertices and g.degree(v) == 3]
    for patch in generate_patches(2):
        pg = patch_graph(g, [(spots[0], patch)])
        assert enumerate_short_cycles(pg, 3) == []


def test_frame_mixed_choices_all_valid():
    g, pairs = reduced_thomas_walls(2)
    seen = set()
    for c1 in FRAME_CHOICES:
        for c2 in FRAME_CHOICES:
            f = frame(g, pairs, (c1, c2))
            assert f.n == g.n + sum(c1) + sum(c2)
            seen.add(canonical_form(f))
    assert len(seen) == 10


# -- 3,3-quadrangulations -----------------------------------------------------------


def test_quad33_six_vertices():
    qs = generate_quad33(6)
    # the prism plus one degenerate member with a non-ring triangle
    assert len(qs) == 2
    tame = [q for q in qs if is_tame(q)]
    assert len(tame) == 1
    assert canonical_form(tame[0]) == canonical_form(fixtures.prism())


def test_quad33_matches_atlas_oracle_up_to_7():
    assert len(generate_quad33(7)) == atlas_quad33_count(7)


def test_quad33_class_counts():
    assert [len(generate_quad33(n)) for n in range(6, 11)] == [2, 10, 58, 346, 2094]


def test_quad33_matches_unfiltered_reference():
    # the same classes in the same order as gluing every filling of every
    # cut; the representatives may differ, as one filling per cut-disk
    # orbit is glued (bound 10 via CYLCOLOR_FULL_ACCEPTANCE=1)
    for n in range(6, 11 if FULL else 10):
        got = [canonical_form(g) for g in generate_quad33(n)]
        assert got == [canonical_form(g) for g in reference_quad33(n)], n


@pytest.mark.parametrize("L", range(1, 7))
def test_quad33_symmetries_keep_the_cut(L):
    cut = _quad33_cut(L)
    B = len(cut.keep)
    glued = {(i, j) for i in range(B) for j in range(B) if cut.keep[i] == cut.keep[j]}
    triangles = {
        frozenset(cut.keep[i] for i in range(B) if ring >> cut.keep[i] & 1)
        for ring in (cut.ring1, cut.ring2)
    }
    symmetries = _quad33_symmetries(L)
    assert len(set(symmetries)) == 4 and tuple(range(B)) in symmetries
    for p in symmetries:
        assert sorted(p) == list(range(B))
        # glued pairs go to glued pairs
        assert {(p[i], p[j]) for i, j in glued} == glued
        # each ring triangle goes to a ring triangle
        for t in triangles:
            assert frozenset(cut.keep[p[i]] for i in range(B) if cut.keep[i] in t) in triangles
        # the boundary cycle goes to itself or to its reverse
        steps = {(p[(i + 1) % B] - p[i]) % B for i in range(B)}
        assert steps in ({1}, {B - 1})


def test_quad33_canonicalizes_one_filling_per_cut_orbit(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return canonical_form(m)

    monkeypatch.setattr(families, "canonical_form", counted)
    assert len(generate_quad33(9)) == 346
    assert len(calls) == 725  # of 2 764 shortest-cut fillings


def _cut_fill_args(n):
    """(cut length, boundary length, internal-vertex budget) at bound n."""
    return [(L, 6 + 2 * L, n - 5 - L) for L in range(1, n - 4)]


def test_cut_pruned_fillings_are_the_kept_gluings():
    # the pruned filler returns exactly the unpruned fillings whose gluing
    # has no loop and ring distance L (by networkx), in the same order
    for n in range(6, 11 if FULL else 10):
        for L, B, budget in _cut_fill_args(n):
            pruned = list(_fill_disk(B, budget, cut=_quad33_cut(L)))
            kept = [
                (faces, n_total)
                for faces, n_total in _fill_disk(B, budget)
                if reference_cut_is_shortest(faces, n_total, L)
            ]
            assert pruned == kept, (n, L)


@pytest.mark.parametrize(
    "n, fillings",
    [(9, 2764), pytest.param(10, 17263, marks=pytest.mark.skipif(
        not FULL, reason="bound 10 via CYLCOLOR_FULL_ACCEPTANCE=1"))],
)
def test_cut_pruned_filling_counts(n, fillings):
    # a work pin: the unpruned filler yields 13 960 fillings at bound 9
    # and 123 428 at bound 10
    assert sum(
        len(list(_fill_disk(B, budget, cut=_quad33_cut(L)))) for L, B, budget in _cut_fill_args(n)
    ) == fillings


def test_quad33_members_validate():
    for q in generate_quad33(8):
        assert is_quad33(q)
        fl = q.faces
        for i, f in enumerate(fl.faces):
            assert len(f) % 2 == 0 or i in fl.ring_faces
        triangles = enumerate_short_cycles(q, 3)
        ring_canons = {canon_cycle(r) for r in q.rings}
        only_ring_triangles = all(
            canon_cycle(t.vertices) in ring_canons for t in triangles
        )
        assert is_tame(q) == only_ring_triangles
        assert set(q.rings[0]).isdisjoint(q.rings[1])


def test_quad33_invalid_bound():
    with pytest.raises(InvalidParameter):
        generate_quad33(5)


# sha256 of the `cylcolor gen` EMG stream of each generator.  They pin the
# representatives and their order independently of the disk filler, which
# reference_quad33 shares.  The hexagon-disk and quad33 representatives are
# the first fillings whose boundary degrees are least in their orbit, and
# near_quad33 at 8 holds the variants with at most 8 vertices.
_STREAM_DIGESTS = {
    ("quad33", 6): "5c49ddd94da2b3dd59da6b04d07be63b199707c9e86be938085284cc9990fc00",
    ("quad33", 7): "6a8dff4821a04fff3f304785cef19c6b9c7945b21d932a389594073a7f9d7125",
    ("quad33", 8): "954f55169c324be087dd88202b3beadafb71b6234889684c1839c840b6a9afc0",
    ("quad33", 9): "d1192057b08b011c2343e771f961405995159d7375ecb9f8c78e88aa76f777b7",
    ("hexagon_disks", 0): "bd0315681ad2981549a680cf7e490bb36bf6c926a931b7ff8eb3adb31da23095",
    ("hexagon_disks", 1): "0736594309ac3110b8c73534b054e3142760a2ddd133dd17bdd1b2872d855980",
    ("hexagon_disks", 2): "2fd6110b13c4cf548d8f133f79350164a9c1090adabc4c3a9a71a378faf54682",
    ("hexagon_disks", 3): "5e235bf0297fb15a69a5d42c57aa568f491327c118e4f1ecfe814bdc6aaaa104",
    ("hexagon_disks", 4): "cf935121b77646536601483ef0a6ca12c7809f0f4e87193552bf59ef42e5409b",
    ("patches", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("patches", 1): "9b632ec6bf978a1d2833bb738a9cb0e0446f50a5a031f690a8269abcccbaa19e",
    ("patches", 2): "81429a17cccc553366f683e11e05bc40899b67f012f9cc77fc5fc4d97ff8e2cd",
    ("patches", 3): "2903f17fb617bb644e8a6fc1d2a7efd2c53973f4c0e5954c8c32e3db2440c999",
    ("patches", 4): "ad39a88bbbcbc99182ff2d55e1076bc83b7a5bfc19443d4fec5847cabcf50e3b",
    ("near_quad33", 8): "32226fc4cc453f73747b885d9abd3e56cd4fb5262bedb8f04b8fd40a3f35b231",
    # vertex bounds, with patches of at most 2 internal vertices (54 and 235 classes)
    ("framed_patched", 14): "d7d73e704d2b9cf0add6a5b06fb08ebbd2ecec0fcc007a4653c9ef0b27dc5816",
    ("framed_patched", 16): "b78279bb05b889993d4cfc992714f5cf437733b4b112c3f2dcc526c2fdac684c",
}
_GENERATORS = {
    "quad33": generate_quad33,
    "near_quad33": generate_near_quad33,
    "hexagon_disks": generate_hexagon_disks,
    "patches": generate_patches,
    "framed_patched": lambda bound: generate_framed_patched(bound, 2),
}


@pytest.mark.parametrize("kind, bound", list(_STREAM_DIGESTS))
def test_generator_stream_digests(kind, bound):
    stream = "".join(emit_emg(g) for g in _GENERATORS[kind](bound))
    assert hashlib.sha256(stream.encode()).hexdigest() == _STREAM_DIGESTS[kind, bound]


# -- deduplication before building -----------------------------------------------------

CENSUS_CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "quad33_le10.emg"


def test_canonical_form_reads_tables_as_maps():
    # the census corpus stores the canonical hash each graph was written with
    text = CENSUS_CORPUS.read_text(encoding="ascii")
    stored = [ln[len("# canon="):] for ln in text.splitlines() if ln.startswith("# canon=")]
    census = parse_emg_stream(text)
    assert len(stored) == len(census) == 2094
    for g, h in zip(census, stored):
        code = canonical_form(_Table(g.rotations, g.rings))
        assert code == canonical_form(g)
        assert hashlib.sha256(code).hexdigest()[:16] == h
    for _, g in fixtures.cylinder_corpus():
        assert canonical_form(_Table(g.rotations, g.rings)) == canonical_form(g)


@pytest.mark.parametrize(
    "generate, bound", [(generate_quad33, 8), (generate_hexagon_disks, 3), (generate_patches, 3)]
)
def test_generators_build_one_graph_per_class(monkeypatch, generate, bound):
    built = []

    class Counted(EmbeddedGraph):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(families, "EmbeddedGraph", Counted)
    classes = generate(bound)
    assert len(classes) > 1
    assert len(built) == len(classes)
    assert {id(g) for g in built} == {id(g) for g in classes}


def test_isomorph_free_builds_a_table_not_reached_whole():
    # the prism beside an octahedron: every root dart lies in the prism, so
    # the transcript never reaches the octahedron and matches the prism's
    prism = fixtures.prism()
    octahedron = ((1, 2, 3, 4), (0, 4, 5, 2), (0, 1, 5, 3), (0, 2, 5, 4), (0, 3, 5, 1), (4, 3, 2, 1))
    rotations = prism.rotations + tuple(tuple(v + 6 for v in r) for r in octahedron)
    table = _Table(rotations, prism.rings)
    assert canonical_form(table) == canonical_form(prism)
    assert _isomorph_free([prism, _Table(prism.rotations, prism.rings)]) == [prism]
    with pytest.raises(EulerViolation):
        _isomorph_free([prism, table])


# -- near 3,3-quadrangulations --------------------------------------------------------


def test_near_quad_single_subdivision():
    g = fixtures.prism()
    out = near_quad33(g, ((0, 1), None))
    assert sorted(len(r) for r in out.rings) == [3, 4]
    fl = out.faces
    assert sorted(len(f) for f in fl.faces if len(f) == 5) == [5]


def test_near_quad_identity():
    g = fixtures.prism()
    assert near_quad33(g, (None, None)) == g


def test_near_quad_both_subdivided():
    g = fixtures.prism()
    out = near_quad33(g, ((0, 1), (3, 4)))
    from cylcolor.analysis import face_deficiency

    assert face_deficiency(out).deficiency_internal == 2
    dec = near_quad33_decomposition(out)
    assert dec is not None
    base, subs = dec
    assert sum(1 for s in subs if s is not None) == 2


def test_near_quad_rejects_off_ring_edge():
    g = fixtures.prism()
    with pytest.raises(EdgeNotOnRing):
        near_quad33(g, ((0, 3), None))


def test_near_quad_rejects_non_quadrangulation():
    with pytest.raises(InvalidParameter):
        near_quad33(cylinder_grid(4, 3), (None, None))


# -- pendant ring ----------------------------------------------------------------------


def test_attach_pendant_ring():
    g = fixtures.hub_hexagon()
    out = attach_pendant_ring(g, 6)
    assert len(out.rings) == 2
    new_ring = out.rings[1]
    assert new_ring[0] == 6
    deg2 = [v for v in new_ring if out.degree(v) == 2]
    assert len(deg2) == 3


def test_attach_pendant_ring_limits():
    with pytest.raises(TooManyRings):
        attach_pendant_ring(fixtures.prism(), 0)


# -- grids --------------------------------------------------------------------------


def test_grid_matches_prism():
    assert canonical_form(cylinder_grid(3, 2)) == canonical_form(fixtures.prism())


def test_grid_faces():
    g = cylinder_grid(4, 3)
    fl = g.faces
    assert sorted(len(f) for f in fl.faces) == [4] * 10
    assert len(fl.ring_faces) == 2


@pytest.mark.parametrize("n", [6, 7, 8])
def test_near_quad33_bounds_the_output(n):
    # the classes of every variant of every base on at most n vertices,
    # cut down to the variants with at most n vertices
    got = generate_near_quad33(n)
    assert max(g.n for g in got) == n
    want = [canonical_form(g) for g in reference_near_quad33(n) if g.n <= n]
    assert [canonical_form(g) for g in got] == want


def test_near_quad33_and_framed_generators_check_bounds():
    # only the 2 bases at 6 vertices; their subdivided variants are larger
    assert len(generate_near_quad33(6)) == 2
    with pytest.raises(InvalidParameter):
        generate_near_quad33(5)
    with pytest.raises(InvalidParameter):
        generate_framed_patched(3, 1)
    with pytest.raises(InvalidParameter):
        generate_framed_patched(12, -1)


def test_penta_tube_is_quad33():
    g = fixtures.penta_tube(2)
    assert is_quad33(g)
    assert distance(g, g.rings[0], g.rings[1]) == 3
    ring_canons = {canon_cycle(r) for r in g.rings}
    extra = [
        r
        for r in enumerate_short_cycles(g, 4, only_noncontractible=True)
        if canon_cycle(r.vertices) not in ring_canons
    ]
    assert extra == []
