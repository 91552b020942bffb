"""Shared test fixtures: hand-built maps and corpus lists.

The basic maps are written out explicitly (independent of the library's
generators) so they can serve as oracles for face tracing and the
constructions.
"""

from __future__ import annotations

from cylcolor.embedding import EmbeddedGraph, rotation_system_from_faces
from cylcolor.families import (
    cylinder_grid,
    frame,
    generate_patches,
    generate_quad33,
    near_quad33,
    patch_graph,
    reduced_thomas_walls,
)


def k4() -> EmbeddedGraph:
    return EmbeddedGraph(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))


def k2n_sphere(n: int) -> EmbeddedGraph:
    """K_{2,n} as a sphere map: hubs 0 and 1, leaves 2..n+1, n 4-faces."""
    leaves = tuple(range(2, n + 2))
    return EmbeddedGraph((leaves, leaves[::-1]) + ((0, 1),) * n)


def c4_disk() -> EmbeddedGraph:
    """4-cycle with one hole: the graph equals its own ring."""
    return EmbeddedGraph(((1, 3), (0, 2), (1, 3), (0, 2)), rings=((0, 1, 2, 3),))


def prism() -> EmbeddedGraph:
    """Triangular prism, rings = the two triangles (hand-built rotations)."""
    return EmbeddedGraph(
        (
            (1, 3, 2),
            (2, 4, 0),
            (0, 5, 1),
            (0, 4, 5),
            (1, 5, 3),
            (2, 3, 4),
        ),
        rings=((0, 1, 2), (3, 4, 5)),
    )


def hub_hexagon() -> EmbeddedGraph:
    """Chordless 6-ring quadrangulated by one hub at alternating positions."""
    return EmbeddedGraph(
        (
            (1, 6, 5),
            (2, 0),
            (3, 6, 1),
            (4, 2),
            (5, 6, 3),
            (0, 4),
            (0, 2, 4),
        ),
        rings=((0, 1, 2, 3, 4, 5),),
    )


def chord_hexagon() -> EmbeddedGraph:
    """6-ring disk quadrangulated by the single diagonal chord 0-3."""
    return EmbeddedGraph(
        (
            (1, 3, 5),
            (2, 0),
            (3, 1),
            (4, 0, 2),
            (5, 3),
            (0, 4),
        ),
        rings=((0, 1, 2, 3, 4, 5),),
    )


def subdivided_prism() -> EmbeddedGraph:
    """Prism with the rung 0-3 subdivided by vertex 6."""
    g = prism()
    rot = [list(r) for r in g.rotations]
    rot[0][rot[0].index(3)] = 6
    rot[3][rot[3].index(0)] = 6
    rot.append([0, 3])
    return EmbeddedGraph(tuple(tuple(r) for r in rot), g.rings)


def prism_contractible_triangle() -> EmbeddedGraph:
    """Subdivided prism plus a chord closing a contractible triangle (0,1,6)."""
    g = subdivided_prism()
    rot = [list(r) for r in g.rotations]
    # the face through 0,6 after subdivision is the pentagon 0,6,3,4,1;
    # drawing chord 1-6 inside it cuts off the triangle 0,6,1
    rot[6].insert(rot[6].index(3), 1)
    rot[1].insert(rot[1].index(0), 6)
    return EmbeddedGraph(tuple(tuple(r) for r in rot), g.rings)


def shared_vertex_quad33() -> EmbeddedGraph:
    """Two triangle rings sharing one vertex, quadrangulated in between.

    z=0, rings (0,1,2) and (0,3,4), one extra edge 1-4; both internal
    faces are quads.
    """
    faces = [(1, 2, 0, 4), (4, 3, 0, 1), (1, 0, 2), (0, 3, 4)]
    rotations = rotation_system_from_faces(faces, 5)
    return EmbeddedGraph(rotations, rings=((0, 1, 2), (0, 3, 4)))


def penta_tube(mid_layers: int) -> EmbeddedGraph:
    """Triangle caps joined by C5 layers; every internal face is a quad.

    A 3,3-quadrangulation with ring distance mid_layers + 1 and no
    non-contractible (<= 4)-cycle besides the rings.
    """
    assert mid_layers >= 1

    def c5(i):
        return [3 + 5 * i + j for j in range(5)]

    a, b, c = 0, 1, 2
    n = 6 + 5 * mid_layers
    a2, b2, c2 = n - 3, n - 2, n - 1
    p, q, r, s, t = c5(0)
    faces = [(a, p, q, r), (a, r, s, b), (b, s, t, c), (c, t, p, a)]
    for i in range(mid_layers - 1):
        cur, nxt = c5(i), c5(i + 1)
        for j in range(5):
            faces.append((cur[j], nxt[j], nxt[(j + 1) % 5], cur[(j + 1) % 5]))
    p2, q2, r2, s2, t2 = c5(mid_layers - 1)
    faces += [
        (r2, q2, p2, a2),
        (b2, s2, r2, a2),
        (c2, t2, s2, b2),
        (a2, p2, t2, c2),
    ]
    hole1 = (a, b, c)
    hole2 = (a2, c2, b2)
    rotations = rotation_system_from_faces(faces + [hole1, hole2], n)
    return EmbeddedGraph(rotations, rings=((a, b, c), (a2, b2, c2)))


def pentagon_disk_two_faces() -> EmbeddedGraph:
    """5-ring disk split into a quad and a pentagon by one internal vertex."""
    faces = [(0, 1, 2, 5), (0, 5, 2, 3, 4), (0, 4, 3, 2, 1)]
    rotations = rotation_system_from_faces(faces, 6)
    return EmbeddedGraph(rotations, rings=((0, 1, 2, 3, 4),))


def cylinder_corpus() -> list[tuple[str, EmbeddedGraph]]:
    """Cylinder graphs with at most 14 vertices used by the audits."""
    out: list[tuple[str, EmbeddedGraph]] = [
        ("prism", prism()),
        ("C3xP3", cylinder_grid(3, 3)),
        ("C3xP4", cylinder_grid(3, 4)),
        ("C4xP2", cylinder_grid(4, 2)),
        ("C4xP3", cylinder_grid(4, 3)),
        ("C5xP2", cylinder_grid(5, 2)),
        ("C6xP2", cylinder_grid(6, 2)),
        ("T'2", reduced_thomas_walls(2)[0]),
        ("T'3", reduced_thomas_walls(3)[0]),
        ("T'4", reduced_thomas_walls(4)[0]),
        ("tube1", penta_tube(1)),
    ]
    g1, p1 = reduced_thomas_walls(1)
    out.append(("framed-T'1", frame(g1, p1, ((True, True), (True, True)))))
    g2, p2 = reduced_thomas_walls(2)
    out.append(("framed-T'2", frame(g2, p2, ((True, True), (True, True)))))
    out.append(("framed-T'2-mixed", frame(g2, p2, ((True, False), (False, True)))))
    for i, q in enumerate(generate_quad33(8)):
        out.append((f"quad33-{i}", q))
    base = generate_quad33(7)[0]
    ring = base.rings[0]
    out.append(("nearquad", near_quad33(base, ((ring[0], ring[1]), None))))
    return [(name, g) for name, g in out if g.n <= 14]


def sphere_corpus() -> list[tuple[str, EmbeddedGraph]]:
    """Triangle-free sphere maps (no rings) for the colorability smoke suite."""
    out = [
        ("cube", cylinder_grid(4, 2).with_rings(())),
        ("C4xP3-sphere", cylinder_grid(4, 3).with_rings(())),
        ("C6xP2-sphere", cylinder_grid(6, 2).with_rings(())),
        ("T'2-sphere", reduced_thomas_walls(2)[0].with_rings(())),
        ("T'3-sphere", reduced_thomas_walls(3)[0].with_rings(())),
        ("T'4-sphere", reduced_thomas_walls(4)[0].with_rings(())),
        ("hub-hexagon-sphere", hub_hexagon().with_rings(())),
        ("C4-sphere", c4_disk().with_rings(())),
    ]
    g3, _ = reduced_thomas_walls(3)
    hub = generate_patches(1)[0]
    out.append(("patched-T'3-sphere", patch_graph(g3, [(4, hub)]).with_rings(())))
    return out
