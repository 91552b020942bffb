"""Graph surgery on cylinder maps: identifications, contractions, cutting.

All operations return new validated EmbeddedGraphs.  Vertex ids compress
after deletions (order preserved), so internal variants also return the
old-to-new id map; audits use it to align ring labels across a surgery.
Identification and triangle-pair collapse merge vertices by one rule
(``_merge``) that builds the simple rotation table directly, so each
builds and validates exactly one map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .coloring import COLORS, blocked_precolorings, _solve_first
from .embedding import (
    Cycle,
    CycleRef,
    EmbeddedGraph,
    bfs_layers,
    canon_cycle,
    compress_rotations,
    enumerate_short_cycles,
    is_contractible,
    is_tame,
    _cycles_up_to,
    _face_sides,
)
from .errors import (
    AuditFailed,
    DiagonalAdjacent,
    InvalidParameter,
    MalformedRotation,
    NoSuchCycle,
    NotACycle,
    NotAFace,
    NotALadder,
    NotTame,
    NotTrianglePair,
    NoRings,
    NothingToExtract,
    PreconditionFailed,
    RingVertex,
    TooLarge,
)


# ---------------------------------------------------------------------------
# shared rotation-table helpers
# ---------------------------------------------------------------------------


def _merge(
    rot: dict[int, list[int]], into: dict[int, int], rings: Sequence[Sequence[int]]
) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Rename each dropped vertex d to ``into[d]`` and build the simple map.

    ``rot`` is in the old ids, without rows for the dropped vertices;
    each kept vertex's row is already its merged rotation, its own
    neighbours first.  A neighbour the renaming repeats in a row is
    either

    - a digon, at cyclically adjacent positions (the two sides of a
      collapsed face or of glued triangles): its lower-index copy goes;
    - or a lens, apart in a kept vertex's row (the merged vertices had a
      further common neighbour w): the dropped vertex's edge goes, as the
      later copy in the kept row and as d in w's row.

    Any other repeat raises MalformedRotation.  Returns the map and the
    old-to-new id map, the dropped vertices included.
    """
    rows = {v: [into.get(u, u) for u in row] for v, row in rot.items()}
    lenses = set()  # (row, position) of each copy of a lens edge that goes
    for d, k in into.items():
        row = rows[k]
        for w in set(row):
            at = [i for i, u in enumerate(row) if u == w]
            if len(at) == 2 and at[1] - at[0] not in (1, len(row) - 1):
                if d not in rot[w]:
                    raise MalformedRotation(f"edge {k}-{w} repeated apart")
                lenses |= {(k, at[1]), (w, rot[w].index(d))}
    for v, row in rows.items():
        row = [u for i, u in enumerate(row) if (v, i) not in lenses]
        lower = set()
        for i, u in enumerate(row):
            if u in row[i + 1 :]:
                j = row.index(u, i + 1)
                if row.count(u) > 2 or j - i not in (1, len(row) - 1):
                    raise MalformedRotation(f"edge {v}-{u} repeated by the merge")
                lower.add(i)
        rows[v] = [u for i, u in enumerate(row) if i not in lower]
    out, remap = compress_rotations(
        rows, [tuple(into.get(v, v) for v in ring) for ring in rings]
    )
    for d, k in into.items():
        remap[d] = remap[k]
    return out, remap


def _linearize(row: Sequence[int], start: int) -> list[int]:
    i = list(row).index(start)
    return list(row[i:]) + list(row[:i])


# ---------------------------------------------------------------------------
# diagonal identification across a 4-face
# ---------------------------------------------------------------------------


def _identify_mapped(
    g: EmbeddedGraph, face: Sequence[int], pair: tuple[int, int]
) -> tuple[EmbeddedGraph, dict[int, int]]:
    fl = g.faces
    fc = canon_cycle(face)
    walk = None
    for idx, f in enumerate(fl.faces):
        if idx in fl.ring_faces or len(f) != 4:
            continue
        if canon_cycle(f) == fc:
            walk = f
            break
    if walk is None:
        raise NotAFace(f"{tuple(face)} is not an internal 4-face")
    v1, v3 = pair
    i = walk.index(v1)
    walk = walk[i:] + walk[:i]
    if walk[2] != v3:
        raise DiagonalAdjacent(f"{pair} is not a diagonal of face {tuple(face)}")
    if g.has_edge(v1, v3):
        raise DiagonalAdjacent(f"diagonal {pair} is an edge")
    ring_vs = g.ring_vertices
    if v1 in ring_vs and v3 in ring_vs:
        raise RingVertex(f"both of {pair} lie on rings")
    keep = v1 if v1 in ring_vs else (v3 if v3 in ring_vs else min(v1, v3))
    drop = v3 if keep == v1 else v1
    if keep != v1:
        walk = walk[2:] + walk[:2]  # re-anchor the walk at the kept vertex
        v1, v3 = keep, drop
    v2, v4 = walk[1], walk[3]

    la = _linearize(g.rotations[v1], v2)  # [v2, ..., v4]
    lb = _linearize(g.rotations[v3], v4)  # [v4, ..., v2]
    if la[-1] != v4 or lb[-1] != v2:
        raise NotAFace(f"face walk {walk} inconsistent with rotations")
    # the merged vertex's rotation: the collapsed face leaves the edges
    # to v2 and v4 doubled as digons, which the merge rule removes
    rot = {v: list(g.rotations[v]) for v in range(g.n)}
    rot[keep] = la + lb
    del rot[drop]
    return _merge(rot, {drop: keep}, g.rings)


def identify_across_face(
    g: EmbeddedGraph, face: Sequence[int], diagonal: str | tuple[int, int] = "13"
) -> EmbeddedGraph:
    """Identify opposite corners of an internal 4-face into one vertex.

    ``diagonal`` selects which opposite pair: "13" for (face[0], face[2]),
    "24" for (face[1], face[3]).  The merged vertex inherits a ring
    vertex's identity when one endpoint lies on a ring (both on rings is
    rejected), else the smaller id.  The merge doubles edges and one copy
    of each goes: of a digon (to one of the face's other two corners,
    the collapsed face between the copies) the lower-index one; of a
    lens (to a further common neighbour of the two ends) the dropped
    vertex's edge.  The dropped vertex is never on a ring, so the result
    is the simple identified graph, embedded the same whatever the vertex
    labels once the kept end is fixed.
    """
    return identify_across_face_mapped(g, face, diagonal)[0]


def identify_across_face_mapped(
    g: EmbeddedGraph, face: Sequence[int], diagonal: str | tuple[int, int] = "13"
) -> tuple[EmbeddedGraph, dict[int, int]]:
    """identify_across_face plus the old-to-new vertex id map."""
    face = tuple(face)
    if len(face) != 4:
        raise NotAFace(f"{face} is not a 4-face")
    if diagonal in ("13", (1, 3)):
        pair = (face[0], face[2])
    elif diagonal in ("24", (2, 4)):
        pair = (face[1], face[3])
    else:
        raise InvalidParameter(f"bad diagonal {diagonal!r}")
    return _identify_mapped(g, face, pair)


# ---------------------------------------------------------------------------
# distance layers and layer cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceClasses:
    """Vertex sets by exact distance from a ring."""

    classes: tuple[frozenset[int], ...]

    def __getitem__(self, a: int) -> frozenset[int]:
        return self.classes[a]

    def __len__(self) -> int:
        return len(self.classes)


def distance_classes(g: EmbeddedGraph, ring_index: int = 0) -> DistanceClasses:
    """Exact BFS layering from the chosen ring."""
    if not 0 <= ring_index < len(g.rings):
        raise InvalidParameter(f"no ring {ring_index}")
    layers = bfs_layers(g.rotations, g.rings[ring_index])
    return DistanceClasses(tuple(map(frozenset, layers)))


def _separates(
    g: EmbeddedGraph, cut: set[int] | frozenset[int], a: Sequence[int], b: Sequence[int]
) -> bool:
    """True iff every path from a vertex in `a` to a vertex in `b` meets `cut`."""
    dst = set(b)
    return all(dst.isdisjoint(layer) for layer in bfs_layers(g.rotations, a, cut))


def shortest_layer_cycle(g: EmbeddedGraph, a: int, ring_index: int = 0) -> CycleRef:
    """Shortest non-contractible cycle with all vertices at distance a.

    Ties are broken lexicographically; the result is induced.
    """
    layers = distance_classes(g, ring_index)
    if not 0 <= a < len(layers):
        raise NoSuchCycle(f"no vertices at distance {a}")
    layer = layers[a]
    if len(g.rings) != 2 or not _separates(g, layer, g.rings[0], g.rings[1]):
        raise NoSuchCycle(f"layer {a} does not separate the rings")
    for length in range(3, len(layer) + 1):
        found = [
            c
            for c in _cycles_up_to(g, length, within=layer)
            if len(c) == length and not is_contractible(g, c)
        ]
        if found:
            best = min(found, key=lambda c: (tuple(sorted(c)), c))
            k = len(best)
            for i in range(k):
                for j in range(i + 2, k):
                    if i == 0 and j == k - 1:
                        continue
                    if g.has_edge(best[i], best[j]):
                        raise AuditFailed(f"shortest layer cycle {best} has a chord")
            return CycleRef(best, False)
    raise NoSuchCycle(f"no non-contractible cycle inside layer {a}")


# ---------------------------------------------------------------------------
# ladder contraction
# ---------------------------------------------------------------------------


def _align_layers(g: EmbeddedGraph, xs: Cycle, ys: Cycle) -> Cycle:
    """Rotate/reflect ys so ys[i] is adjacent to xs[i] for all i."""
    k = len(xs)
    options = []
    fwd = list(ys)
    for s in range(k):
        options.append(tuple(fwd[s:] + fwd[:s]))
    rev = list(reversed(ys))
    for s in range(k):
        options.append(tuple(rev[s:] + rev[:s]))
    for cand in options:
        if all(g.has_edge(xs[i], cand[i]) for i in range(k)):
            return cand
    raise NotALadder("layer cycles have no aligned rung matching")


def ladder_contract(g: EmbeddedGraph, q2: CycleRef | Sequence[int], q3: CycleRef | Sequence[int]) -> EmbeddedGraph:
    """The graph with the staircase between layer cycles q2 and q3
    identified (``_ladder_contract_mapped``), ids compressed in order.

    Raises NotALadder unless q2 and q3 are disjoint equal-length cycles
    (>= 4) joined by rung 4-faces, and what ``identify_across_face``
    raises.  No vertex guard applies: nothing is searched.
    """
    return _ladder_contract_mapped(g, q2, q3)[0]


def _ladder_contract_mapped(g, q2, q3) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Identify the alternating staircase between two quadrangulated layers.

    For layer length k the identified set runs x1, y2, x3, ... up to
    x_{k-3} when k is even and x_{k-2} when k is odd, realized as a
    sequence of diagonal identifications across the rung 4-faces.
    """
    xs = tuple(q2.vertices if isinstance(q2, CycleRef) else q2)
    ys_raw = tuple(q3.vertices if isinstance(q3, CycleRef) else q3)
    k = len(xs)
    if k != len(ys_raw) or k < 4:
        raise NotALadder("layer cycles must have equal length >= 4")
    if set(xs) & set(ys_raw):
        raise NotALadder("layer cycles share vertices")
    if not all(0 <= v < g.n for v in xs + ys_raw):
        raise NotALadder(f"layer vertex outside 0..{g.n - 1}")
    ys = _align_layers(g, xs, ys_raw)
    fl = g.faces
    quads = {
        canon_cycle(f) for i, f in enumerate(fl.faces) if len(f) == 4 and i not in fl.ring_faces
    }
    for i in range(k):
        quad = (xs[i], xs[(i + 1) % k], ys[(i + 1) % k], ys[i])
        if canon_cycle(quad) not in quads:
            raise NotALadder(f"rung face {quad} missing")
    last = k - 3 if k % 2 == 0 else k - 2
    # 1-based alternating staircase: x1, y2, x3, ...
    chain = [
        (xs[t - 1] if t % 2 == 1 else ys[t - 1]) for t in range(1, last + 1)
    ]
    total = {v: v for v in range(g.n)}
    cur = g
    for t in range(1, len(chain)):
        a = total[chain[t - 1]]
        b = total[chain[t]]
        # the rung quad between layer positions t and t+1 (1-based)
        quad = tuple(total[v] for v in (xs[t - 1], xs[t], ys[t], ys[t - 1]))
        cur, remap = _identify_mapped(cur, quad, (a, b))
        total = {v: remap[w] for v, w in total.items()}
    return cur, total


# ---------------------------------------------------------------------------
# collapsing a pair of triangles through a shared vertex
# ---------------------------------------------------------------------------


def collapse_triangle_pair(
    g: EmbeddedGraph, t1: CycleRef | Sequence[int], t2: CycleRef | Sequence[int]
) -> EmbeddedGraph:
    """The graph with the region between two non-contractible triangles
    sharing one vertex removed and the triangles glued
    (``_collapse_mapped``), ids compressed in order.

    Raises NotTrianglePair when t1 and t2 are no such pair around a
    region, MalformedRotation when the gluing repeats an edge other than
    as a digon or a lens.  No vertex guard applies: nothing is searched.
    """
    return _collapse_mapped(g, t1, t2)[0]


def _collapse_mapped(g, t1, t2) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Remove the region between two triangles sharing one vertex and glue them.

    The region is the part of the chain piece between the triangles:
    the faces on hole 1's side of t2 but not of t1.  Its interior goes,
    and the triangles, both walked from the shared vertex z as (z, p, q)
    around the region, glue p1 with q2 and q1 with p2.  The glued sides
    become digons; a further common neighbour of a glued pair is a lens
    and keeps the edge of p1 or q1 (see ``_merge``).
    """
    c1 = tuple(t1.vertices if isinstance(t1, CycleRef) else t1)
    c2 = tuple(t2.vertices if isinstance(t2, CycleRef) else t2)
    for c in (c1, c2):
        if len(c) != 3 or not all(
            g.has_edge(c[i], c[(i + 1) % 3]) for i in range(3)
        ):
            raise NotTrianglePair(f"{c} is not a triangle")
        if is_contractible(g, c):
            raise NotTrianglePair(f"{c} is contractible")
    shared = set(c1) & set(c2)
    if len(shared) != 1:
        raise NotTrianglePair("triangles must share exactly one vertex")
    z = shared.pop()

    sigma = _hole1_side(g, c2) - _hole1_side(g, c1)
    if not sigma:
        raise NotTrianglePair("no region between the triangles")

    def boundary_walk(tri: Cycle) -> Cycle:
        darts = []
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            if g.face_of_dart(a, b) in sigma:
                darts.append((a, b))
            elif g.face_of_dart(b, a) in sigma:
                darts.append((b, a))
            else:
                raise NotTrianglePair(f"triangle edge {a}-{b} does not bound the region")
        nxt = dict(darts)
        walk = [z, nxt[z], nxt[nxt[z]]]
        if len(set(walk)) != 3 or nxt[walk[2]] != z:
            raise NotTrianglePair("region boundary is not the triangle")
        return tuple(walk)

    w1 = boundary_walk(c1)
    w2 = boundary_walk(c2)
    p1, q1 = w1[1], w1[2]
    p2, q2 = w2[1], w2[2]

    interior_vertices = set()
    for v in range(g.n):
        if v in c1 or v in c2:
            continue
        vfaces = {g.face_of_dart(v, u) for u in g.rotations[v]} | {
            g.face_of_dart(u, v) for u in g.rotations[v]
        }
        if vfaces & sigma:
            if not vfaces <= sigma:
                raise NotTrianglePair(f"vertex {v} straddles the region boundary")
            interior_vertices.add(v)
    interior_edges = set()
    for u, v in g.edges():
        if g.face_of_dart(u, v) in sigma and g.face_of_dart(v, u) in sigma:
            interior_edges.add(frozenset((u, v)))

    rot: dict[int, list[int]] = {}
    for v in range(g.n):
        if v in interior_vertices:
            continue
        row = [
            u
            for u in g.rotations[v]
            if u not in interior_vertices and frozenset((u, v)) not in interior_edges
        ]
        rot[v] = row

    def splice(keep: int, other: int, k_start: int, k_end: int, o_start: int, o_end: int):
        lk = _linearize(rot[keep], k_start)
        if lk[-1] != k_end:
            raise NotTrianglePair("region boundary corners do not close")
        lo = _linearize(rot[other], o_start)
        if lo[-1] != o_end:
            raise NotTrianglePair("region boundary corners do not close")
        rot[keep] = lk + lo
        del rot[other]

    # glue p1 with q2 and q1 with p2 (reversed pairing around the annulus)
    splice(p1, q2, q1, z, z, p2)
    splice(q1, p2, z, p1, q2, z)
    return _merge(rot, {q2: p1, p2: q1}, g.rings)


# ---------------------------------------------------------------------------
# deletion tests: criticality and maximal critical subgraphs
# ---------------------------------------------------------------------------


def _connected_after(rot: dict[int, Sequence[int]], x) -> bool:
    """Is the graph of the rotation table still connected after deleting
    x, a vertex id or a frozenset edge?

    Without the edge uv, everything is reached from u exactly when
    everything but u is reached from u's other neighbours without
    passing u.
    """
    if isinstance(x, frozenset):
        gone, other = x
        sources = [v for v in rot[gone] if v != other]
    else:
        gone = x
        sources = [v for v in rot if v != gone][:1]
    return sum(map(len, bfs_layers(rot, sources, (gone,)))) == len(rot) - 1


def _deletion_adjacency(rows: dict[int, Sequence[int]], x):
    """Solver adjacency of a rotation table with x, a vertex id or a
    frozenset edge, deleted; ids below the largest one without a row
    are isolated.

    The rows the deletion does not touch are ``rows``' own, shared, so
    the adjacency is valid only until ``rows`` next changes; only the
    ends of the edge, or the vertex and its neighbours, are re-filtered,
    each in its order.
    """
    adj: list[Sequence[int]] = [()] * (max(rows) + 1)
    for v, row in rows.items():
        adj[v] = row
    if isinstance(x, frozenset):
        a, b = x
        adj[a] = tuple(w for w in rows[a] if w != b)
        adj[b] = tuple(w for w in rows[b] if w != a)
    else:
        adj[x] = ()
        for u in rows[x]:
            adj[u] = tuple(w for w in rows[u] if w != x)
    return adj


class _DeletionTest:
    """Is one deletion of a non-ring vertex or edge felt, in g or in a
    subgraph of g with the same extendable set?

    A deletion is a vertex id or a frozenset edge.  It can only add
    members, so it is felt exactly when some precoloring blocked in g
    extends.  Two local color arguments settle most deletions before any
    search:

    - Degree rule: deleting a non-ring vertex x with at most two
      neighbours, or an edge at such an x, is never felt.  Any coloring
      of the rest leaves x a free color, so it extends to the whole
      graph; this is the ring version of Dirac's bound, minimum degree
      at least k - 1 in a k-critical graph.
    - Certificate rule: a coloring that extends a blocked precoloring
      and is proper except on one edge ab (a single-defect coloring)
      proves felt the edge ab and each non-ring end of it.  Each
      coloring a search finds starts a walk over such colorings (see
      ``_walk``).  A proof holds in every later subgraph, since accepted
      deletions keep g's set, so a blocked precoloring stays blocked and
      the coloring stays proper except on ab; a proven deletion is not
      searched again.

    Any other deletion is searched: the precolorings blocked in g are
    drawn lazily from the sweep, in lexicographic order, kept for the
    next deletion, and tried until one extends.
    """

    def __init__(self, g: EmbeddedGraph):
        self.ring_vs = g.ring_vertices
        self.felt: set = set()  # vertex ids and frozenset edges
        self._drawn: list[dict[int, int]] = []
        self._pending = blocked_precolorings(g)

    def blocked(self) -> Iterator[dict[int, int]]:
        """The blocked precolorings of g, drawing new ones only when reached."""
        i = 0
        while True:
            if i == len(self._drawn):
                fixed = next(self._pending, None)
                if fixed is None:
                    return
                self._drawn.append(fixed)
            yield self._drawn[i]
            i += 1

    def first_unchanged(self, rows: dict[int, Sequence[int]], deletions, keep_connected: bool):
        """The first of ``deletions`` that keeps g's extendable set in the
        graph with rotation rows ``rows``, or None.

        A deletion proven felt is passed over, and so, with
        ``keep_connected``, is one that disconnects the graph.  An
        iterator of deletions resumes after the one returned.
        """
        for x in deletions:
            if x in self.felt or (keep_connected and not _connected_after(rows, x)):
                continue
            if self.unchanged(rows, x):
                return x
        return None

    def unchanged(self, rows: dict[int, Sequence[int]], x) -> bool:
        """True iff deleting x from the graph with rotation rows ``rows``
        keeps g's extendable set."""
        ends = tuple(x) if isinstance(x, frozenset) else (x,)
        if any(w not in self.ring_vs and len(rows[w]) <= 2 for w in ends):
            return True
        adj = _deletion_adjacency(rows, x)
        for fixed in self.blocked():
            col = _solve_first(adj, fixed)
            if col is not None:
                self.felt.add(x)
                self._walk(rows, col, ends)
                return False
        return True

    def _walk(self, rows, found: dict[int, int], ends: Sequence[int]) -> None:
        """Record every deletion proved felt by the single-defect
        colorings that the coloring ``found``, of the graph minus one
        vertex or edge with ends ``ends``, leads to.

        ``found`` extends a blocked precoloring, so it is not proper on
        the whole graph, and each of its monochromatic edges meets
        ``ends``.  Each non-ring vertex w on all of them is felt, and one
        walk starts from each color c: when exactly one neighbour u of w
        has color c, recoloring w to c gives a single-defect coloring on
        wu.  From a single-defect coloring on wu reached by recoloring w,
        the walk recolors u the same way, unless u is on a ring
        (recoloring w again only gives colorings already met).  Each walk
        goes depth first and takes each defect edge the first time it
        meets it, with its own set of edges met: a set shared between
        walks, or with ``felt``, cuts off colorings that lead on.  Ring
        vertices keep their colors, so every coloring met extends the
        blocked precoloring.  A coloring is a list, copied only when the
        walk takes a new defect edge.
        """
        ring_vs, felt = self.ring_vs, self.felt

        def step(col: list[int], w: int, colors, seen: set, todo: list) -> None:
            # recolor w in each of ``colors``: one pass over w's row
            count = [0, 0, 0, 0]  # w's neighbours of each color
            last = [0, 0, 0, 0]  # the last of them in w's row
            for u in rows[w]:
                c = col[u]
                count[c] += 1
                last[c] = u
            for c in colors:
                if count[c] == 1:
                    u = last[c]
                    e = frozenset((w, u))
                    if e not in seen:
                        seen.add(e)
                        felt.add(e)
                        if u not in ring_vs:
                            felt.add(u)
                            moved = col.copy()
                            moved[w] = c
                            todo.append((moved, u))

        start = list(found.values())
        mono = [{w, u} for w in ends for u in rows[w] if start[u] == start[w]]
        for w in sorted(set.intersection(*mono) - ring_vs):
            felt.add(w)
            for c in COLORS:
                seen: set[frozenset[int]] = set()  # this walk's defect edges
                todo: list[tuple[list[int], int]] = []  # (coloring, u to recolor)
                step(start, w, (c,), seen, todo)
                while todo:
                    step(*todo.pop(), COLORS, seen, todo)


@dataclass(frozen=True)
class CriticalityReport:
    """Verdict plus a deletable witness when the graph is not critical.

    The witness is ("vertex", v) or ("edge", (u, v)) whose deletion keeps
    the extendable set unchanged, or ("equals-rings", None) when the graph
    is nothing but its rings.
    """

    is_critical: bool
    witness: Optional[tuple[str, object]] = None


def is_critical(g: EmbeddedGraph, guard: int = 22) -> CriticalityReport:
    """True iff the graph exceeds its rings and every deletion is felt.

    One scan of ``_DeletionTest`` tries the non-ring vertices by id, then
    the non-ring edges (u, v), u < v, in sorted order; the first deletion
    that keeps the extendable set is the witness.  Deletions are
    evaluated on the adjacency structure, so intermediate subgraphs need
    not be valid embeddings.  Raises NoRings on a graph without rings,
    else TooLarge above ``guard`` vertices.
    """
    if not g.rings:
        raise NoRings("criticality is defined relative to rings")
    if g.n > guard:
        raise TooLarge(f"{g.n} vertices exceeds guard {guard}")
    ring_vs = g.ring_vertices
    ring_edges = g.ring_edge_set()
    vertices = [v for v in range(g.n) if v not in ring_vs]
    edges = [frozenset(e) for e in sorted(g.edges()) if frozenset(e) not in ring_edges]
    if not vertices and not edges:
        return CriticalityReport(False, ("equals-rings", None))
    rows = dict(enumerate(g.rotations))
    x = _DeletionTest(g).first_unchanged(rows, vertices + edges, False)
    if x is None:
        return CriticalityReport(True, None)
    if isinstance(x, frozenset):
        return CriticalityReport(False, ("edge", tuple(sorted(x))))
    return CriticalityReport(False, ("vertex", x))


def maximal_critical_subgraph(g: EmbeddedGraph, guard: int = 22) -> EmbeddedGraph:
    """The subgraph ``_maximal_critical_mapped`` extracts, ids compressed
    in order.  Raises TooLarge above ``guard`` vertices, else
    NothingToExtract when every ring precoloring extends."""
    return _maximal_critical_mapped(g, guard)[0]


def _maximal_critical_mapped(g: EmbeddedGraph, guard: int = 22):
    """Delete non-ring edges, then non-ring vertices, while the extendable
    set is unchanged and the graph stays connected; returns the subgraph
    and the old-to-new id map.

    The edges are tried once each, in the order of g's rows: by larger
    endpoint, then by position in that endpoint's rotation.  An edge
    passed over is felt or disconnects, and stays so in every later
    subgraph, so no later deletion makes it deletable.  The vertex scan
    restarts from the lowest id after each deletion, since a cut vertex
    stops being one once its pendant neighbour goes.  The result is
    critical whenever it exceeds the bare rings.
    """
    if g.n > guard:
        raise TooLarge(f"{g.n} vertices exceeds guard {guard}")
    test = _DeletionTest(g)
    if next(test.blocked(), None) is None:
        raise NothingToExtract("every ring precoloring extends")

    rot: dict[int, list[int]] = {v: list(g.rotations[v]) for v in range(g.n)}
    ring_edges = g.ring_edge_set()
    edges = (
        frozenset((u, v))
        for v, row in enumerate(g.rotations)
        for u in row
        if u < v and frozenset((u, v)) not in ring_edges
    )
    while (e := test.first_unchanged(rot, edges, True)) is not None:
        u, v = e
        rot[u].remove(v)
        rot[v].remove(u)
    while (v := test.first_unchanged(rot, sorted(rot.keys() - test.ring_vs), True)) is not None:
        for u in rot[v]:
            rot[u].remove(v)
        del rot[v]
    return compress_rotations(rot, g.rings)


# ---------------------------------------------------------------------------
# chain decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainDecomposition:
    """Cutting cycles and the sub-cylinders between consecutive ones."""

    cutting_cycles: tuple[CycleRef, ...]
    pieces: tuple[EmbeddedGraph, ...]

    @property
    def n(self) -> int:
        return len(self.pieces)


def _hole1_side(g: EmbeddedGraph, cyc: Cycle) -> frozenset[int]:
    side_a, side_b = _face_sides(g, cyc)
    return frozenset(side_a if g.faces.ring_faces[0] in side_a else side_b)


def _chain_candidates(g: EmbeddedGraph):
    """The non-contractible (<= 4)-cycles, and the faces on ring 1's side of each.

    Only the non-contractible cycles have their faces split.
    """
    refs = enumerate_short_cycles(g, 4, only_noncontractible=True)
    return refs, {r.vertices: _hole1_side(g, r.vertices) for r in refs}


def _exception_ok(g, x: Cycle, y: Cycle, ring1: Cycle, ring2: Cycle) -> bool:
    if not (set(x) & set(y)):
        return True
    if canon_cycle(x) == canon_cycle(ring1) and len(x) == 4 and len(y) == 3:
        return True
    if canon_cycle(y) == canon_cycle(ring2) and len(y) == 4 and len(x) == 3:
        return True
    return False


def chain_decompose(g: EmbeddedGraph) -> ChainDecomposition:
    """A maximum-length chain of sub-cylinders cut along short cycles.

    Exact search over the non-contractible (<= 4)-cycles; every triangle
    must be a cutting cycle.  Falls back to the single trivial piece when
    no interior cutting cycle exists.
    """
    if len(g.rings) != 2:
        raise InvalidParameter("chain decomposition needs a cylinder")
    if any(len(r) > 4 for r in g.rings):
        raise InvalidParameter("rings longer than 4")
    if not is_tame(g):
        raise NotTame("graph is not tame")
    ring1, ring2 = g.rings
    if set(ring1) & set(ring2):
        # end cycles must be disjoint (two 4-rings never fall under the
        # triangle exception), so no chain exists at all
        raise InvalidParameter("rings share vertices; no chain exists")
    refs, sides = _chain_candidates(g)
    byc = {canon_cycle(r.vertices): r.vertices for r in refs}
    c0 = byc[canon_cycle(ring1)]
    cn = byc[canon_cycle(ring2)]
    mandatory = [r.vertices for r in refs if len(r.vertices) == 3]

    nodes = []
    for r in refs:
        v = r.vertices
        ok = True
        for m in mandatory:
            if m == v or not (set(m) & set(v)):
                continue
            if not (
                _exception_ok(g, v, m, ring1, ring2)
                or _exception_ok(g, m, v, ring1, ring2)
            ):
                ok = False
                break
        if ok:
            nodes.append(v)
    order = sorted(nodes, key=lambda v: (len(sides[v]), tuple(sorted(v)), v))
    mand_sides = [sides[m] for m in mandatory]

    def edge_ok(x: Cycle, y: Cycle) -> bool:
        if not sides[x] < sides[y]:
            return False
        if not _exception_ok(g, x, y, ring1, ring2):
            return False
        for i, m in enumerate(mandatory):
            if m in (x, y):
                continue
            if sides[x] < mand_sides[i] < sides[y]:
                return False
        return True

    best: dict[Cycle, tuple[int, tuple[Cycle, ...]]] = {c0: (0, (c0,))}
    for x in order:
        if x not in best:
            continue
        lx, px = best[x]
        for y in order:
            if sides[y] <= sides[x] or not edge_ok(x, y):
                continue
            if y not in best or best[y][0] < lx + 1:
                best[y] = (lx + 1, px + (y,))
    if cn not in best:
        raise AuditFailed("no valid chain found")
    path = best[cn][1]
    cycles = tuple(CycleRef(c, False) for c in path)
    pieces = tuple(_piece_between(g, path[i], path[i + 1], sides) for i in range(len(path) - 1))
    return ChainDecomposition(cycles, pieces)


def _piece_between(g, x: Cycle, y: Cycle, sides) -> EmbeddedGraph:
    region = sides[y] - sides[x]
    rot: dict[int, list[int]] = {}
    cyc_edges = set()
    for c in (x, y):
        for i in range(len(c)):
            cyc_edges.add(frozenset((c[i], c[(i + 1) % len(c)])))
    for v in range(g.n):
        row = []
        for u in g.rotations[v]:
            e = frozenset((u, v))
            if (
                g.face_of_dart(v, u) in region
                or g.face_of_dart(u, v) in region
                or e in cyc_edges
            ):
                row.append(u)
        if row:
            rot[v] = row
    keep = set(rot)
    for v in keep:
        rot[v] = [u for u in rot[v] if u in keep]
    return compress_rotations(rot, (x, y))[0]


def audit_chain(g: EmbeddedGraph, chain: ChainDecomposition) -> list[str]:
    """Independent check of the five chain conditions; empty means valid."""
    violations: list[str] = []
    cycles = [c.vertices for c in chain.cutting_cycles]
    n = len(cycles) - 1
    ring1, ring2 = g.rings
    if canon_cycle(cycles[0]) != canon_cycle(ring1) or canon_cycle(cycles[-1]) != canon_cycle(ring2):
        violations.append("end cycles are not the rings")
    all_cycles = True
    for c in cycles:
        try:
            if is_contractible(g, c):
                violations.append(f"cutting cycle {c} contractible")
        except NotACycle:
            violations.append(f"{c} is not a cycle")
            all_cycles = False
    if not all_cycles:
        return violations  # the checks below need every cutting cycle to be a cycle of g
    last = len(cycles) - 1
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if not (set(cycles[i]) & set(cycles[j])):
                continue
            if (i, j) == (0, 1):
                allowed = len(cycles[0]) == 4 and len(cycles[1]) == 3
            elif (i, j) == (last - 1, last):
                allowed = len(cycles[last]) == 4 and len(cycles[last - 1]) == 3
            else:
                allowed = False
            if not allowed:
                violations.append(f"cycles {i} and {j} intersect")
    # separation order, path-based
    for j in range(1, len(cycles) - 1):
        cut = set(cycles[j])
        for i in range(j):
            for k in range(j + 1, len(cycles)):
                if not _separates(g, cut, cycles[i], cycles[k]):
                    violations.append(f"cycle {j} fails to separate {i} from {k}")
    triangles = [c for c in _cycles_up_to(g, 3)]
    canon_cuts = {canon_cycle(c) for c in cycles}
    for t in triangles:
        if canon_cycle(t) not in canon_cuts:
            violations.append(f"triangle {t} is not a cutting cycle")
    # pieces tile the graph: regions partition the internal faces and each
    # piece carries exactly its region's edges plus its boundary cycles
    sides = {c: _hole1_side(g, c) for c in cycles}
    covered_faces: set[int] = set()
    for i in range(n):
        region = sides[cycles[i + 1]] - sides[cycles[i]]
        if covered_faces & region:
            violations.append(f"piece {i} overlaps earlier pieces")
        covered_faces |= region
        expected = set()
        for c in (cycles[i], cycles[i + 1]):
            for t in range(len(c)):
                expected.add(frozenset((c[t], c[(t + 1) % len(c)])))
        for u, v in g.edges():
            if g.face_of_dart(u, v) in region or g.face_of_dart(v, u) in region:
                expected.add(frozenset((u, v)))
        if i < len(chain.pieces) and chain.pieces[i].edge_count != len(expected):
            violations.append(f"piece {i} edge count mismatch")
    all_faces = set(range(len(g.faces.faces))) - set(g.faces.ring_faces)
    if covered_faces != all_faces:
        violations.append("pieces do not tile the internal faces")
    return violations


# ---------------------------------------------------------------------------
# the cutting step
# ---------------------------------------------------------------------------


def cut_step(g: EmbeddedGraph, d0: int, guard: int = 22, audit: bool = True) -> EmbeddedGraph:
    """One cutting step (``_cut_step_mapped``): a cylinder dominating g
    with a new short non-contractible cycle, ids compressed in order.

    Raises PreconditionFailed when g, or a graph stepped from, breaks a
    precondition or no route applies; TooLarge when a graph tested for
    criticality or extracted has more than ``guard`` vertices; with
    ``audit``, AuditFailed when the result fails a conclusion.
    """
    out, _ = _cut_step_mapped(g, d0, guard, audit)
    return out


def _ring_distances(g: EmbeddedGraph) -> list[list[int]]:
    """Each vertex's distance from each ring, one list by id per ring."""
    out = []
    for ring in g.rings:
        dist = [0] * g.n  # the graph is connected
        for k, layer in enumerate(bfs_layers(g.rotations, ring)):
            for v in layer:
                dist[v] = k
        out.append(dist)
    return out


def _identified_distance(d1, d2, d: int, a: int, b: int) -> int:
    """The ring distance after identifying a with b in a graph at ring
    distance d, its vertices at d1 and d2 from the rings: a shortest
    path enters the merged vertex once."""
    return min(d, d1[a] + d2[b], d1[b] + d2[a])


def _short_cycles(g: EmbeddedGraph) -> tuple[list[CycleRef], list[CycleRef]]:
    """The (<= 4)-cycles, and of them the non-contractible ones but the rings."""
    cycles = enumerate_short_cycles(g, 4)
    rings = {canon_cycle(r) for r in g.rings}
    return cycles, [c for c in cycles if not (c.contractible or canon_cycle(c.vertices) in rings)]


def _cut_step_mapped(g: EmbeddedGraph, d0: int, guard: int, audit: bool):
    """The cutting step and its old-to-new id map.

    A loop over the graphs it steps from, g first.  Each is laid out once,
    by one scan of its (<= 4)-cycles and one BFS from each ring, which
    check its preconditions in order and feed ``_cut_route``.  A ladder
    result, or an identified one with a new short non-contractible cycle,
    ends the loop; the loop steps from any other.  The audit compares
    the result with g.
    """
    cur, total, scan, d_in = g, {v: v for v in range(g.n)}, None, None
    while True:
        if len(cur.rings) != 2 or any(len(r) > 4 for r in cur.rings):
            raise PreconditionFailed("rings: need a cylinder with rings of length <= 4")
        if not is_critical(cur, guard=guard).is_critical:
            raise PreconditionFailed("critical: input graph is not critical")
        cycles, extra = scan or _short_cycles(cur)
        if any(len(c.vertices) == 3 and c.contractible for c in cycles):
            raise PreconditionFailed("contractible-triangle-free")
        if extra:
            raise PreconditionFailed(
                f"noncontractible-cycles-are-rings: extra cycle {extra[0].vertices}"
            )
        d1, d2 = _ring_distances(cur)
        d = min(d1[v] for v in cur.rings[1])
        d_in = d if d_in is None else d_in
        if d0 < 3 or d < d0:
            raise PreconditionFailed(f"distance: d({d}) < d0({d0})")
        step = _cut_route(cur, d1, d2, d, guard)
        if step is None:
            raise PreconditionFailed("no identification or ladder step applies")
        cur, moved, identified = step
        total = {v: moved[w] for v, w in total.items() if w in moved}
        scan = _short_cycles(cur) if identified else None
        if scan is None or scan[1]:
            break
    if audit:
        _audit_cut(g, cur, total, d_in, (scan or _short_cycles(cur))[1])
    return cur, total


def _cut_route(g: EmbeddedGraph, d1, d2, d: int, guard: int):
    """One step from g at ring distance d, its vertices at d1 and d2 from
    the rings: the graph, the old-to-new id map and whether it was
    identified, or None when no route applies.

    The identification route takes, face by face, the first diagonal of
    an internal 4-face at distance >= 3 from the rings and next to no
    longer face whose identification keeps d and builds (only those that
    keep d are built), and returns its maximal critical subgraph, with a
    triangle pair collapsed when it is not tame.  The ladder route
    contracts the staircase of a quadrangulated band.
    """
    fl = g.faces
    facelen_at = [0] * g.n
    for i, f in enumerate(fl.faces):
        if i not in fl.ring_faces:
            for v in f:
                facelen_at[v] = max(facelen_at[v], len(f))
    faces4 = [
        f
        for i, f in enumerate(fl.faces)
        if i not in fl.ring_faces
        and len(f) == 4
        and all(facelen_at[v] <= 4 and d1[v] >= 3 and d2[v] >= 3 for v in f)
    ]
    faces4.sort(key=lambda f: tuple(sorted(f)))
    for f in faces4:
        for a, b in ((f[0], f[2]), (f[1], f[3])):
            if _identified_distance(d1, d2, d, a, b) < d:
                continue
            try:
                g1, m1 = _identify_mapped(g, f, (a, b))
            except (MalformedRotation, DiagonalAdjacent, RingVertex):
                continue
            g2, m2 = _maximal_critical_mapped(g1, guard)
            moved = {v: m2[m1[v]] for v in range(g.n) if v in m1 and m1[v] in m2}
            if is_tame(g2):
                return g2, moved, True
            g3, m3 = _collapse_best_pair(g2, m2.get(m1[a]))
            return g3, {v: m3[w] for v, w in moved.items() if w in m3}, True

    # ladder route: find a quadrangulated band and contract the staircase
    dmax = max(d1)
    for b in range(2, dmax - 2):
        top = min(b + 6, dmax)
        if any(facelen_at[v] > 4 for v in range(g.n) if b - 1 <= d1[v] <= top):
            continue
        try:
            qs = [shortest_layer_cycle(g, a) for a in range(b, top)]
        except NoSuchCycle:
            continue
        if len(qs) < 4 or any(len(q.vertices) < len(qs[0].vertices) for q in qs):
            continue
        try:
            return (*_ladder_contract_mapped(g, qs[2].vertices, qs[3].vertices), False)
        except NotALadder:
            continue
    return None


def _collapse_best_pair(g: EmbeddedGraph, z: Optional[int]):
    tris = [t.vertices for t in enumerate_short_cycles(g, 3) if not t.contractible]
    if z is not None:
        tris = [t for t in tris if z in t]
    best = None
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            if len(set(tris[i]) & set(tris[j])) != 1:
                continue
            try:
                out, remap = _collapse_mapped(g, tris[i], tris[j])
            except NotTrianglePair:
                continue
            size = g.n - out.n
            if best is None or size > best[0]:
                best = (size, out, remap)
    if best is None:
        raise NotTrianglePair("no collapsible triangle pair")
    return best[1], best[2]


def _audit_cut(g, out, total, d_before, extra):
    # looked up at each call, so a wrapper on either module attribute sees it
    from .coloring import dominates_under
    from .families import near_quad33_decomposition

    if len(out.rings) != 2:
        raise AuditFailed("result is not a cylinder")
    ring_map = {v: total[v] for v in g.ring_vertices}
    if not dominates_under(out, g, ring_map):
        raise AuditFailed("result does not dominate the input")
    d1, d2 = _ring_distances(out)
    d_after = min(d1[v] for v in out.rings[1])
    if d_after < d_before - 2:
        raise AuditFailed(f"ring distance dropped from {d_before} to {d_after}")
    if not extra:
        raise AuditFailed("no new short non-contractible cycle")
    zs = {v for v in range(out.n) if d1[v] >= 3 and d2[v] >= 3}
    for r in extra:
        zs &= set(r.vertices)
    if not zs:
        raise AuditFailed("no common far vertex on the new short cycles")
    dec_out = near_quad33_decomposition(out)
    if dec_out is not None:
        dec_in = near_quad33_decomposition(g)
        if dec_in is None:
            raise AuditFailed("near-quadrangulation result without near-quadrangulation input")
        fives_out = sum(1 for f in out.faces.faces if len(f) == 5)
        fives_in = sum(1 for f in g.faces.faces if len(f) == 5)
        if fives_out != fives_in:
            raise AuditFailed("5-face counts differ")
