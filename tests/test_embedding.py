"""Embedding module: construction, faces, contractibility, cycles, EMG."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylcolor.embedding import (
    EmbeddedGraph,
    canon_cycle,
    distance,
    emit_emg,
    enumerate_short_cycles,
    is_contractible,
    is_tame,
    parse_emg,
    parse_emg_stream,
    relabel,
    _cycles_up_to,
)
from cylcolor.errors import (
    EMGParseError,
    EulerViolation,
    MalformedRotation,
    NotACycle,
)
from cylcolor.families import (
    cylinder_grid,
    generate_hexagon_disks,
    generate_patches,
    generate_quad33,
    near_quad33,
    reduced_thomas_walls,
)

import fixtures
from oracles import (
    nx_cycles,
    reference_canon_cycle,
    reference_is_contractible,
    reference_is_tame,
    reference_ring_faces,
    to_nx,
)

import networkx as nx


# -- construction and validation ------------------------------------------


def test_rejects_loops():
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(((0, 1), (0,)))


def test_rejects_asymmetric():
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(((1,), (2,), (1,)))


def test_rejects_parallel():
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(((1, 1), (0, 0)))


def test_rejects_disconnected():
    with pytest.raises(EulerViolation):
        EmbeddedGraph(((1,), (0,), (3,), (2,)))


def test_rejects_nonspherical():
    # K4 with one rotation flipped is a torus map
    with pytest.raises(EulerViolation):
        EmbeddedGraph(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 1, 2)))


def test_rejects_ring_not_a_face():
    prism = fixtures.prism()
    # (0,1,4,3) bounds a quad face, so it is a legal ring designation
    EmbeddedGraph(prism.rotations, rings=((0, 1, 4, 3),))
    # (0,1,4,5,2) is a cycle but not a face boundary
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(prism.rotations, rings=((0, 1, 4, 5, 2),))
    # a ring with a missing edge is rejected as well
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(prism.rotations, rings=((0, 1, 2, 3),))


def test_rejects_ring_vertex_out_of_range():
    rot = fixtures.prism().rotations
    for ring in ((0, 1, 6), (0, 1, 2, 9), (-1, 0, 1)):
        with pytest.raises(MalformedRotation, match="out of range"):
            EmbeddedGraph(rot, rings=(ring,))
    # the same through the EMG parser, on a 7-vertex map
    text = emit_emg(near_quad33(fixtures.prism(), ((0, 1), None)))
    lines = text.splitlines()
    lines[3] = "ring 4 7 4 6 3"
    with pytest.raises(MalformedRotation, match="out of range"):
        parse_emg("\n".join(lines) + "\n")


def test_parse_rejects_vertex_count_beyond_rot_lines():
    # refused before any table of that size is built
    text = emit_emg(fixtures.prism()).replace("vertices 6", "vertices 600000000000")
    with pytest.raises(EMGParseError, match="rot lines"):
        parse_emg(text)


def test_ring_faces_match_full_scan():
    cycle = fixtures.c4_disk()
    graphs = [g for _, g in fixtures.cylinder_corpus()]
    graphs += generate_hexagon_disks(2) + generate_patches(2)
    # both faces of a lone 4-cycle bound each ring: the tie-break decides
    graphs += [
        EmbeddedGraph(cycle.rotations, rings=((0, 1, 2, 3), (0, 1, 2, 3))),
        EmbeddedGraph(cycle.rotations, rings=((0, 1, 2, 3), (3, 2, 1, 0))),
        cycle,
    ]
    rng = random.Random(5)
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, relabel(g, perm)):
            assert h.faces.ring_faces == reference_ring_faces(h)


def test_rejects_three_rings():
    g = fixtures.prism()
    with pytest.raises(MalformedRotation):
        EmbeddedGraph(g.rotations, rings=((0, 1, 2), (3, 4, 5), (0, 3, 4, 1)))


# -- face tracing -----------------------------------------------------------


def test_k4_faces():
    fl = fixtures.k4().faces
    assert sorted(len(f) for f in fl.faces) == [3, 3, 3, 3]
    assert fl.ring_faces == ()


def test_prism_faces():
    g = fixtures.prism()
    fl = g.faces
    assert sorted(len(f) for f in fl.faces) == [3, 3, 4, 4, 4]
    holes = {canon_cycle(fl.faces[i]) for i in fl.ring_faces}
    assert holes == {canon_cycle((0, 1, 2)), canon_cycle((3, 4, 5))}


def test_c4_disk_faces():
    fl = fixtures.c4_disk().faces
    assert sorted(len(f) for f in fl.faces) == [4, 4]
    assert len(fl.ring_faces) == 1


def test_face_partition_is_exact():
    for _, g in fixtures.cylinder_corpus():
        assert sum(len(f) for f in g.faces.faces) == 2 * g.edge_count


# -- contractibility --------------------------------------------------------


def test_prism_ring_noncontractible():
    g = fixtures.prism()
    assert not is_contractible(g, (0, 1, 2))
    assert not is_contractible(g, (3, 4, 5))


def test_grid_face_contractible():
    g = cylinder_grid(4, 3)
    fl = g.faces
    quad = next(
        f
        for i, f in enumerate(fl.faces)
        if len(f) == 4 and i not in fl.ring_faces
    )
    assert is_contractible(g, quad)


def test_grid_middle_layer_noncontractible():
    g = cylinder_grid(4, 3)
    assert not is_contractible(g, (4, 5, 6, 7))


def test_sphere_and_disk_always_contractible():
    k4 = fixtures.k4()
    for ref in enumerate_short_cycles(k4, 4):
        assert ref.contractible
    disk = fixtures.hub_hexagon()
    for ref in enumerate_short_cycles(disk, 5):
        assert ref.contractible


def test_not_a_cycle():
    g = fixtures.prism()
    with pytest.raises(NotACycle):
        is_contractible(g, (0, 1))
    with pytest.raises(NotACycle):
        is_contractible(g, (0, 1, 5))
    with pytest.raises(NotACycle):
        is_contractible(g, (0, 1, 2, 1))


def test_contractibility_by_parity_matches_face_split():
    corpus = [g for _, g in fixtures.cylinder_corpus()]
    corpus += [reduced_thomas_walls(n)[0] for n in range(1, 8)]
    corpus += [fixtures.penta_tube(k) for k in range(1, 6)]
    corpus += generate_quad33(9) + generate_hexagon_disks(3)
    corpus += [fixtures.shared_vertex_quad33(), fixtures.chord_hexagon()]
    checked = 0
    noncontractible = 0
    rng = random.Random(5)
    for g in corpus:
        for cyc in sorted(nx_cycles(g, 5)):
            # a cycle's answer does not depend on where it starts or its direction
            k = rng.randrange(len(cyc))
            walk = cyc[k:] + cyc[:k]
            walk = walk[::-1] if rng.random() < 0.5 else walk
            want = reference_is_contractible(g, cyc)
            assert is_contractible(g, walk) == want, (g, cyc)
            checked += 1
            noncontractible += not want
    assert checked > 5000 and noncontractible > 500


@given(st.integers(0, 5), st.booleans())
def test_contractibility_invariant_under_rotation_reversal(shift, flip):
    g = cylinder_grid(4, 3)
    cyc = [4, 5, 6, 7]
    base = is_contractible(g, cyc)
    c = cyc[shift % 4 :] + cyc[: shift % 4]
    if flip:
        c = [c[0]] + list(reversed(c[1:]))
    assert is_contractible(g, c) == base


# -- distance ---------------------------------------------------------------


def test_prism_ring_distance():
    g = fixtures.prism()
    assert distance(g, {0, 1, 2}, {3, 4, 5}) == 1


@pytest.mark.parametrize("k", [2, 3, 5])
def test_grid_ring_distance(k):
    g = cylinder_grid(4, k)
    d = distance(g, set(g.rings[0]), set(g.rings[1]))
    assert d == k - 1
    G = to_nx(g)
    oracle = min(
        nx.shortest_path_length(G, a, b) for a in g.rings[0] for b in g.rings[1]
    )
    assert d == oracle


def _traversal_corpus():
    out = [g for _, g in fixtures.cylinder_corpus()]
    out += [reduced_thomas_walls(n)[0] for n in range(1, 14)]
    out += [fixtures.penta_tube(k) for k in range(1, 7)]
    out.append(cylinder_grid(5, 6))
    out += generate_hexagon_disks(3)
    return out


def test_traversals_match_networkx():
    """Every reader of the one layered BFS against networkx."""
    from cylcolor.coloring import _sweep_order
    from cylcolor.surgery import _connected_after, _ring_distances, _separates, distance_classes

    for g in _traversal_corpus():
        G = to_nx(g)
        ring1, ring_vs = sorted(g.rings[0]), g.ring_vertices
        layers = [set(layer) for layer in nx.bfs_layers(G, ring1)]
        assert [set(c) for c in distance_classes(g)] == layers
        assert _sweep_order(g.rotations, ring1) == [v for s in layers for v in sorted(s)]

        to_ring = nx.multi_source_dijkstra_path_length(G, ring_vs)
        assert all(distance(g, {v}, ring_vs) == d for v, d in to_ring.items())
        for ring, dist in zip(g.rings, _ring_distances(g)):
            assert dict(enumerate(dist)) == nx.multi_source_dijkstra_path_length(G, set(ring))
        if len(g.rings) == 2:
            from_ring1 = nx.multi_source_dijkstra_path_length(G, set(ring1))
            want = min(from_ring1[v] for v in g.rings[1])
            assert distance(g, g.rings[0], g.rings[1]) == want

        far = layers[-1] | set(g.rings[-1])
        for cut in layers:
            H = G.subgraph(set(G) - cut)
            assert _separates(g, cut, ring1, far) == (
                not any(nx.has_path(H, a, b) for a in set(ring1) - cut for b in far - cut)
            )

        # in g few deletions disconnect; in a spanning tree of g most do
        ring_edges = g.ring_edge_set()
        for F in (G, nx.bfs_tree(G, 0).to_undirected()):
            rot = {v: list(F[v]) for v in F}
            for u, v in F.edges():
                if frozenset((u, v)) in ring_edges:
                    continue
                H = F.copy()
                H.remove_edge(u, v)
                assert _connected_after(rot, frozenset((u, v))) == nx.is_connected(H)
            for v in F:
                if v in ring_vs:
                    continue
                H = F.copy()
                H.remove_node(v)
                assert _connected_after(rot, v) == nx.is_connected(H)


def test_distance_intersecting_sets():
    g = fixtures.prism()
    assert distance(g, {0, 1}, {1, 2}) == 0


def test_distance_rejects_empty_sets_and_outside_vertices():
    g = fixtures.prism()
    with pytest.raises(ValueError):
        distance(g, set(), {0})
    with pytest.raises(ValueError):
        distance(g, {0}, ())
    grid = cylinder_grid(4, 3)
    for h1, h2 in (([-1], [0]), ([0], [99]), ([0], [grid.n])):  # -1 is no last vertex
        with pytest.raises(ValueError, match="outside"):
            distance(grid, h1, h2)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=10))
def test_canon_cycle_matches_every_rotation_reference(seq):
    assert canon_cycle(seq) == reference_canon_cycle(seq)
    assert canon_cycle(tuple(seq)) == reference_canon_cycle(seq)


# -- short cycle enumeration -------------------------------------------------


def test_prism_short_cycles_match_oracle():
    g = fixtures.prism()
    got = {r.vertices for r in enumerate_short_cycles(g, 4)}
    assert got == nx_cycles(g, 4)
    # the only non-contractible short cycles are the two ring triangles:
    # every 4-cycle of the prism bounds a quad face
    nc = [r.vertices for r in enumerate_short_cycles(g, 4, only_noncontractible=True)]
    assert nc == [(0, 1, 2), (3, 4, 5)]


def test_grid_triangle_free():
    assert enumerate_short_cycles(cylinder_grid(4, 3), 3) == []


def test_k4_triangles():
    refs = enumerate_short_cycles(fixtures.k4(), 3)
    assert len(refs) == 4 and all(r.contractible for r in refs)


def test_cycle_oracle_on_corpus():
    for name, g in fixtures.cylinder_corpus():
        got = {r.vertices for r in enumerate_short_cycles(g, 5)}
        assert got == nx_cycles(g, 5), name


def test_cycles_up_to_every_length_match_oracle():
    # the last vertex of a path is taken only next to its root: the
    # pruned search must still find every cycle of each length bound
    graphs = [g for _, g in fixtures.cylinder_corpus()]
    graphs += [fixtures.penta_tube(k) for k in range(3, 7)]
    graphs += [cylinder_grid(6, 6), reduced_thomas_walls(10)[0]]
    for i, g in enumerate(graphs):
        for max_len in range(3, 7):
            assert set(_cycles_up_to(g, max_len)) == nx_cycles(g, max_len), (i, max_len)


def test_enumeration_order_deterministic():
    g = fixtures.prism()
    refs = enumerate_short_cycles(g, 4)
    keys = [(tuple(sorted(r.vertices)), r.vertices) for r in refs]
    assert keys == sorted(keys)


# -- tameness ----------------------------------------------------------------


def test_prism_tame():
    assert is_tame(fixtures.prism())


def test_triangle_free_cylinder_tame():
    assert is_tame(cylinder_grid(4, 4))


def test_contractible_triangle_not_tame():
    assert not is_tame(fixtures.prism_contractible_triangle())


def test_shared_triangles_not_tame():
    assert not is_tame(fixtures.shared_vertex_quad33())


def test_is_tame_matches_cycle_search_oracle():
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "quad33_le10.emg"
    graphs = parse_emg_stream(corpus.read_text(encoding="ascii"))
    graphs += generate_quad33(9) + generate_hexagon_disks(3)
    verdicts = [is_tame(g) for g in graphs]
    assert verdicts == [reference_is_tame(g) for g in graphs]
    assert any(verdicts) and not all(verdicts)


# -- relabeling ---------------------------------------------------------------


def test_relabel_roundtrip():
    g = fixtures.prism()
    rng = random.Random(7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    inverse = [0] * g.n
    for old, new in enumerate(perm):
        inverse[new] = old
    assert relabel(h, inverse) == g


def test_prism_side_quad_contractible():
    g = fixtures.prism()
    assert is_contractible(g, (0, 1, 4, 3))
    assert not is_contractible(g, (0, 1, 2))


# -- EMG format ---------------------------------------------------------------


def test_emg_roundtrip_corpus():
    for name, g in fixtures.cylinder_corpus():
        text = emit_emg(g)
        assert parse_emg(text) == g, name
        assert emit_emg(parse_emg(text)) == text, name


def test_emg_comments_and_whitespace():
    g = fixtures.c4_disk()
    text = emit_emg(g)
    noisy = "# a comment\n" + text.replace("rings 1", "rings 1\n# another")
    assert parse_emg(noisy) == g


def test_emg_rejects_trailing_garbage():
    text = emit_emg(fixtures.c4_disk()) + "rot 9: 1 2\n"
    with pytest.raises(EMGParseError):
        parse_emg(text)


def test_emg_rejects_bad_header():
    with pytest.raises(EMGParseError):
        parse_emg("emg 2\nvertices 1\nrings 0\nrot 0:\n")


def test_emg_rejects_truncation():
    text = emit_emg(fixtures.prism())
    truncated = "\n".join(text.splitlines()[:-2]) + "\n"
    with pytest.raises(EMGParseError):
        parse_emg(truncated)


def test_emg_stream():
    gs = [fixtures.prism(), fixtures.c4_disk(), fixtures.k4()]
    blob = "".join(emit_emg(g) for g in gs)
    assert parse_emg_stream(blob) == gs
    assert parse_emg_stream("") == []
    with pytest.raises(EMGParseError):
        parse_emg_stream("vertices 3\n")
