"""Constructors and exhaustive generators for the graph families.

Covers the iterated tetrahedron chain (Thomas-Walls graphs) and its
reduced cylinder form, quadrangulated-disk patches, patching and framing
surgeries, 3,3-quadrangulations of the cylinder and their near variants,
pendant-ring attachment, and cylindrical grids used as fixtures.

The generators are the family API: ``generate_patches``,
``generate_hexagon_disks``, ``generate_quad33``, ``generate_near_quad33``
and ``generate_framed_patched``.  Each checks its own bounds and raises
``InvalidParameter`` on a bad one.  They are exhaustive and isomorph-free:
labeled enumeration with a fixed derivation order, deduplicated by
canonical form, returned in canonical-form order.  The disk
generators yield raw rotation tables, which are canonicalized first:
only the first table of each class is built and validated as a map, and
a duplicate costs one canonical form.  Every disk generator shares one
filler, which keeps one partial graph (a neighbour bitmask per vertex),
refuses each new side that would be a loop or a parallel edge in it, and
streams the fillings as it completes them.  The quad33 generator fills
a disk only along a cut that is a shortest path between the rings: the
filler prunes longer cuts as it fills, since they re-derive graphs that
an earlier, shorter cut already gave.  The hexagon-disk and quad33
generators canonicalize a filling only when its boundary degree tuple
is least among its images under the symmetries of the boundary (the
hexagon's 12, the cut disk's 4), which drops most relabelings of one
class before their canonical form: the classes and their order stay
those of the unfiltered enumeration, while a class's representative may
differ.  The patch generator is left unfiltered, as its representatives
are written into the framed-chain recipes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ._canon import canonical_form
from .embedding import (
    Cycle,
    EmbeddedGraph,
    compress_rotations,
    emit_emg,
    parse_emg,
    reflected,
    rotation_system_from_faces,
)
from .errors import (
    CylColorError,
    EdgeNotOnRing,
    InvalidParameter,
    MalformedRotation,
    NotIndependent,
    RingShapeMismatch,
    RingVertex,
    TooManyRings,
    WrongDegree,
)


@dataclass(frozen=True)
class InterfacePairs:
    """The two diagonal pairs of a reduced Thomas-Walls graph's end 4-cycles."""

    first: tuple[int, int]
    second: tuple[int, int]


class _Table(NamedTuple):
    """A rotation table with its rings, not yet validated as a map."""

    rotations: tuple[tuple[int, ...], ...]
    rings: tuple[Cycle, ...]


def _isomorph_free(maps: Iterable[EmbeddedGraph | _Table]) -> list[EmbeddedGraph]:
    """The first map of each isomorphism class, in canonical-form order.

    A table is built, and so validated, only when it is the first of its
    class; a later one is dropped unbuilt.  That is sound: the code holds
    one block per vertex its transcript reached, so when a table has the
    code of a validated map with as many vertices, the transcript reached
    every vertex of the table, and the table is that map relabeled, or
    its mirror image, with the same rings: it is valid too.  A table whose
    code matches a kept map with another vertex count was not reached
    whole, and is built so that validation raises.
    """
    seen: dict[bytes, EmbeddedGraph] = {}
    for m in maps:
        key = canonical_form(m)
        kept = seen.get(key)
        if kept is None or kept.n != len(m.rotations):
            seen[key] = m if isinstance(m, EmbeddedGraph) else EmbeddedGraph(*m)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# Thomas-Walls chain
# ---------------------------------------------------------------------------


def _attach_gadget(rot: list[list[int]], walk: Cycle, u: int, v: int, x: int, y: int, z: int) -> Cycle:
    """Grow the chain by one gadget inside the hole face `walk`.

    `walk` is the traced walk of the hole 4-face, u and v opposite on it.
    Adds x adjacent to u, and y, z adjacent to v, plus edges xy and xz
    (the yz diagonal is intentionally absent).  Returns the new hole walk.
    """
    i = walk.index(u)
    w = walk[i:] + walk[:i]
    if w[2] != v:
        raise InvalidParameter(f"{u} and {v} not opposite on hole walk {walk}")
    b_side, a_side = w[1], w[3]
    # at u: x lands in the hole corner, between a_side and b_side
    ru = rot[u]
    ru.insert(ru.index(a_side) + 1, x)
    # at v: z then y land in the hole corner, between b_side and a_side
    rv = rot[v]
    j = rv.index(b_side) + 1
    rv[j:j] = [z, y]
    rot.extend([[z, u, y], [v, x], [x, v]])  # rotations of x, y, z
    return (x, z, v, y)


def reduced_thomas_walls(n: int) -> tuple[EmbeddedGraph, InterfacePairs]:
    """Reduced chain T'_n in the cylinder, with its interface pairs.

    T'_1 is a 4-cycle whose two faces are both holes; its interface
    pairs are the two opposite vertex pairs.  For n >= 2 the rings are
    the two end 4-cycles left by removing the end diagonals.
    """
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if n == 1:
        g = EmbeddedGraph(((2, 3), (2, 3), (0, 1), (0, 1)), rings=((0, 2, 1, 3), (2, 0, 3, 1)))
        return g, InterfacePairs((0, 1), (2, 3))
    rot: list[list[int]] = [[2, 3], [2, 3], [0, 1], [0, 1]]
    walk: Cycle = (2, 0, 3, 1)  # second hole face of the starting 4-cycle
    u, v = 2, 3
    for i in range(1, n):
        x, y, z = 3 * i + 1, 3 * i + 2, 3 * i + 3
        walk = _attach_gadget(rot, walk, u, v, x, y, z)
        u, v = y, z
    ring1 = (0, 2, 1, 3)
    ring2 = (walk[3], walk[0], walk[1], walk[2])  # (y, x, z, v)
    g = EmbeddedGraph(tuple(tuple(r) for r in rot), rings=(ring1, ring2))
    return g, InterfacePairs((0, 1), (u, v))


def _insert_chord(rot: list[list[int]], walk: Cycle, a: int, c: int) -> None:
    """Draw the diagonal a-c inside the 4-face with traced walk `walk`."""
    i = walk.index(a)
    w = walk[i:] + walk[:i]
    if w[2] != c:
        raise InvalidParameter(f"{a} and {c} not opposite on {walk}")
    ra = rot[a]
    ra.insert(ra.index(w[3]) + 1, c)  # succ(pred) = c, succ(c) = old succ
    rc = rot[c]
    rc.insert(rc.index(w[1]) + 1, a)


def thomas_walls(n: int) -> EmbeddedGraph:
    """The n-th graph of the iterated tetrahedron chain, in the sphere."""
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if n == 1:
        return EmbeddedGraph(((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))
    g, pairs = reduced_thomas_walls(n)
    rot = [list(r) for r in g.rotations]
    faces = g.faces
    walk1 = faces.faces[faces.ring_faces[0]]
    walk2 = faces.faces[faces.ring_faces[1]]
    _insert_chord(rot, walk1, *pairs.first)
    _insert_chord(rot, walk2, *pairs.second)
    return EmbeddedGraph(tuple(tuple(r) for r in rot))


# ---------------------------------------------------------------------------
# quadrangulations of a disk (shared generator engine)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Cut:
    """The cut along which a filled disk is glued back into a cylinder.

    ``keep[p]`` is the boundary position that position p is glued to (p
    itself when p has no second copy); ``ring1`` and ``ring2`` are the
    bitmasks of the two ring triangles over kept ids, and ``length`` is L.
    """

    length: int
    keep: tuple[int, ...]
    ring1: int
    ring2: int

    def rings_closer(self, adj: list[int]) -> bool:
        """Whether the rings are closer than L in the glued graph ``adj``.

        Refusing such a branch is exact: every completion keeps its
        edges, and adding edges never lengthens a distance.
        """
        reach = frontier = self.ring1
        for _ in range(self.length - 1):
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~reach
            if frontier & self.ring2:
                return True
            reach |= frontier
        return False


def _fill_disk(
    boundary_len: int,
    max_internal: int,
    chordless: bool = False,
    cut: _Cut | None = None,
) -> Iterator[tuple[tuple[Cycle, ...], int]]:
    """All fillings of a boundary cycle by quadrilateral faces.

    Boundary vertices are 0..boundary_len-1; new internal vertices get
    the next ids.  Yields (internal faces, total vertex count) for each
    completed filling; faces are oriented consistently with the boundary
    walk 0,1,...,B-1.  Labeled enumeration is duplicate-free: the face at
    the first dart of the active region is determined by the final
    object, so each filling has exactly one derivation.

    The filler keeps one partial graph, a neighbour bitmask per vertex
    in glued ids: those of the ``cut`` (the quad33 generator's), or the
    disk's own ids without one.  A new side is refused when it is a loop
    or parallel to an edge of that graph, or, when ``chordless``, when it
    joins two boundary vertices.  With a cut, a branch is also dropped as
    soon as the rings come closer than the cut length, so the fillings
    are exactly those whose gluing is a map with ring distance L, in the
    order of the unpruned enumeration.
    """
    B = boundary_len
    glue = list(cut.keep if cut else range(B)) + list(range(B, B + max_internal))
    adj = [0] * len(glue)
    for i in range(B):
        u, v = glue[i], glue[(i + 1) % B]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    yield from _fillings([list(range(B))], B, [], adj, glue, B if chordless else 0, cut)


def _fillings(regions, n_total, faces, adj, glue, chords_below, cut):
    """The completions of a partial filling, in derivation order.

    ``regions`` are the unfilled cycles (the last one is filled next),
    ``faces`` the faces so far and ``adj`` the glued partial graph; both
    are extended in place and restored before returning.  A side joining
    two vertices below ``chords_below`` is a refused chord.
    """
    if not regions:
        yield tuple(faces), n_total
        return
    region = regions[-1]
    rest = regions[:-1]
    L = len(region)
    a, b = region[0], region[1]
    opts = list(range(2, L)) + [None]  # a position on the region, or a new vertex
    for jc, jd in product(opts, opts):
        if jc is not None and jd is not None and jc >= jd:
            continue
        nxt = n_total + (jc is None) + (jd is None)
        if nxt > len(adj):
            continue
        c = n_total if jc is None else region[jc]
        d = nxt - 1 if jd is None else region[jd]
        # remaining sub-regions after carving the quad (a, b, c, d)
        if jc is None and jd is None:
            pieces = [region[1:] + [a, d, c]]
        elif jd is None:
            pieces = [region[1 : jc + 1], region[jc:] + [a, d]]
        elif jc is None:
            pieces = [region[jd:] + [a], region[1 : jd + 1] + [c]]
        else:
            pieces = [region[1 : jc + 1], region[jc : jd + 1], region[jd:] + [a]]
        if any(len(p) % 2 for p in pieces):
            continue
        # the quad's sides other than walk edges of the region
        sides = []
        if jc != 2:
            sides.append((b, c))
        if jc is None or jd != jc + 1:
            sides.append((c, d))
        if jd != L - 1:
            sides.append((d, a))
        added = []
        for x, y in sides:
            if x < chords_below and y < chords_below:
                break
            x, y = glue[x], glue[y]
            if x == y or adj[x] >> y & 1:
                break
            adj[x] |= 1 << y
            adj[y] |= 1 << x
            added.append((x, y))
        else:
            if not (cut and added and cut.rings_closer(adj)):
                faces.append((a, b, c, d))
                yield from _fillings(
                    rest + [p for p in pieces if len(p) > 2],
                    nxt, faces, adj, glue, chords_below, cut,
                )
                faces.pop()
        for x, y in added:
            adj[x] ^= 1 << y
            adj[y] ^= 1 << x


def _disk_table(faces: tuple[Cycle, ...], n_total: int, boundary_len: int) -> _Table:
    hole = (0,) + tuple(range(boundary_len - 1, 0, -1))
    rot = rotation_system_from_faces(list(faces) + [hole], n_total)
    return _Table(rot, (tuple(range(boundary_len)),))


# The 12 relabelings of a hexagon's boundary 0..5: rotations and reflections.
_HEXAGON_SYMMETRIES = tuple(
    tuple((s * i + r) % 6 for i in range(6)) for s in (1, -1) for r in range(6)
)


def _least_in_boundary_orbit(
    faces: tuple[Cycle, ...], symmetries: tuple[tuple[int, ...], ...]
) -> bool:
    """Whether a filling's boundary degrees are least in their orbit.

    The degree tuple of boundary vertices 0..B-1 is compared with its
    images under ``symmetries``, a group of permutations of the boundary
    positions.  A boundary vertex lies on one face fewer than its degree,
    since the hole face is not listed.
    """
    B = len(symmetries[0])
    deg = [1] * B
    for face in faces:
        for v in face:
            if v < B:
                deg[v] += 1
    least = tuple(deg)
    return all(least <= itemgetter(*p)(deg) for p in symmetries)


def generate_hexagon_disks(max_internal: int) -> list[EmbeddedGraph]:
    """All quadrangulated disks with a 6-ring, chords allowed, isomorph-free.

    A filling is canonicalized only when its boundary degree tuple is
    lexicographically least among its 12 rotations and reflections, which
    drops most relabelings of one disk before their canonical form.  No
    class is lost: the filler yields every filling of the labeled oriented
    hexagon, so for each filling it also yields the image under every
    symmetry of the hexagon (a reflection with its faces reversed), which
    is the same disk up to mirror image.  Those images carry every
    permutation of the degree tuple by the symmetries, and the one with
    the least tuple is kept.  The classes and their order are those of
    the unfiltered enumeration; a class's representative may differ.
    """
    if max_internal < 0:
        raise InvalidParameter("max_internal must be >= 0")
    return _isomorph_free(
        _disk_table(faces, n_total, 6)
        for faces, n_total in _fill_disk(6, max_internal)
        if _least_in_boundary_orbit(faces, _HEXAGON_SYMMETRIES)
    )


def generate_patches(max_internal: int) -> list[EmbeddedGraph]:
    """All patches (chordless 6-ring, quadrangulated interior), isomorph-free."""
    if max_internal < 0:
        raise InvalidParameter("max_internal must be >= 0")
    return _isomorph_free(
        _disk_table(faces, n_total, 6)
        for faces, n_total in _fill_disk(6, max_internal, chordless=True)
    )


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def _oriented_patch(patch: EmbeddedGraph) -> EmbeddedGraph:
    """Reflect the patch if needed so its hole walk follows the ring descriptor."""
    ring = patch.rings[0]
    walk = patch.faces.faces[patch.faces.ring_faces[0]]
    i = walk.index(ring[0])
    walk = walk[i:] + walk[:i]
    if walk == ring:
        return patch
    flipped = (ring[0],) + tuple(reversed(ring[1:]))
    if walk != flipped:
        raise MalformedRotation("patch ring does not match its hole walk")
    return reflected(patch)


def patch_ring_variants(patch: EmbeddedGraph) -> list[EmbeddedGraph]:
    """The 12 gluing alignments of a patch (ring rotations and reversals)."""
    ring = patch.rings[0]
    out = []
    for k in range(6):
        rotated = ring[k:] + ring[:k]
        out.append(patch.with_rings((rotated,)))
        out.append(patch.with_rings(((rotated[0],) + tuple(reversed(rotated[1:])),)))
    return out


def _check_placements(g: EmbeddedGraph, placements) -> None:
    verts = [v for v, _ in placements]
    if len(set(verts)) != len(verts):
        raise NotIndependent("repeated placement vertex")
    for v in verts:
        if not 0 <= v < g.n:
            raise InvalidParameter(f"placement vertex {v} outside 0..{g.n - 1}")
        if v in g.ring_vertices:
            raise RingVertex(f"placement vertex {v} lies on a ring")
        if g.degree(v) != 3:
            raise WrongDegree(f"placement vertex {v} has degree {g.degree(v)}")
    for v, u in combinations(verts, 2):
        if g.has_edge(v, u):
            raise NotIndependent(f"placement vertices {v}, {u} are adjacent")


def patch_graph(
    g: EmbeddedGraph, placements: Sequence[tuple[int, EmbeddedGraph]]
) -> EmbeddedGraph:
    """Replace each placed degree-3 vertex by a 6-cycle filled with the patch.

    The placed vertex v with rotation (x, y, z) becomes the hexagon
    x a y b z c; the patch's ring maps onto that hexagon starting at x
    (the smallest-id neighbor).  Other alignments are obtained by passing
    a patch from patch_ring_variants.
    """
    _check_placements(g, placements)
    rot: dict[int, list[int]] = {v: list(g.rotations[v]) for v in range(g.n)}
    next_id = g.n
    for v, patch in placements:
        pa = _oriented_patch(patch)
        ring = pa.rings[0]
        nbrs = rot[v]
        i = nbrs.index(min(nbrs))
        xyz = nbrs[i:] + nbrs[:i]  # rotation order starting at the smallest id
        sigma: dict[int, int] = {}
        for t in range(3):
            sigma[ring[2 * t]] = xyz[t]
        for p in range(pa.n):
            if p not in sigma:
                sigma[p] = next_id
                next_id += 1
        # interior vertices and odd ring vertices: rotation copied through sigma
        for p in range(pa.n):
            if p in ring and ring.index(p) % 2 == 0:
                continue
            rot[sigma[p]] = [sigma[q] for q in pa.rotations[p]]
        # even ring vertices replace v inside the host rotation
        for t in range(3):
            rp = ring[2 * t]
            succ_ring = ring[(2 * t + 1) % 6]
            pred_ring = ring[(2 * t - 1) % 6]
            prot = list(pa.rotations[rp])
            j = prot.index(succ_ring)
            lin = prot[j:] + prot[:j]
            if lin[-1] != pred_ring:
                raise MalformedRotation("patch ring corner is not a hole corner")
            internals = [sigma[q] for q in lin[1:-1]]
            host = rot[xyz[t]]
            k = host.index(v)
            host[k : k + 1] = [sigma[succ_ring]] + internals + [sigma[pred_ring]]
        del rot[v]
    return compress_rotations(rot, g.rings)[0]


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def frame(
    g: EmbeddedGraph,
    pairs: InterfacePairs,
    choices: Sequence[tuple[bool, bool]],
) -> EmbeddedGraph:
    """Add new ring 4-cycles x y' z w' at both ends.

    ``choices[i] = (fresh_y, fresh_w)`` decides whether y'_i and w'_i are
    new vertices or reuse y_i and w_i.  Reusing both leaves the end
    unchanged apart from the ring designation.
    """
    if len(g.rings) != 2:
        raise RingShapeMismatch("framing needs a cylinder with two rings")
    if len(choices) != 2:
        raise InvalidParameter("one choice per end is required")
    rot = [list(r) for r in g.rotations]
    next_id = g.n
    new_rings: list[Cycle] = []
    for end, (x, z) in enumerate((pairs.first, pairs.second)):
        ring = g.rings[end]
        if len(ring) != 4:
            raise RingShapeMismatch(f"ring {ring} is not a 4-cycle")
        if x not in ring or z not in ring:
            raise RingShapeMismatch(f"pair ({x},{z}) not on ring {ring}")
        di = ring.index(x)
        desc = ring[di:] + ring[:di]
        if desc[2] != z:
            raise RingShapeMismatch(f"pair ({x},{z}) not opposite on ring {ring}")
        y_desc, w_desc = desc[1], desc[3]
        walk = g.faces.faces[g.faces.ring_faces[end]]
        wi = walk.index(x)
        walk = walk[wi:] + walk[:wi]
        alpha, beta = walk[1], walk[3]
        fresh_y, fresh_w = choices[end]
        fresh_alpha = fresh_y if alpha == y_desc else fresh_w
        fresh_beta = fresh_w if alpha == y_desc else fresh_y
        alpha_p = alpha
        beta_p = beta
        inserts: list[int] = []
        if fresh_beta:
            beta_p = next_id
            next_id += 1
            inserts.append(beta_p)
            rot.append([x, z])
        if fresh_alpha:
            alpha_p = next_id
            next_id += 1
            inserts.append(alpha_p)
            rot.append([x, z])
        if inserts:
            # at x the fresh vertices sit in the hole corner between beta
            # and alpha, ordered beta', alpha'; at z the mirror order.
            rx = rot[x]
            k = rx.index(beta)
            seq = [p for p in (beta_p, alpha_p) if p != alpha and p != beta]
            rx[k + 1 : k + 1] = seq
            rz = rot[z]
            k = rz.index(alpha)
            rz[k + 1 : k + 1] = list(reversed(seq))
        y_p = alpha_p if alpha == y_desc else beta_p
        w_p = beta_p if alpha == y_desc else alpha_p
        new_rings.append((x, y_p, z, w_p))
    return EmbeddedGraph(tuple(tuple(r) for r in rot), tuple(new_rings))


# ---------------------------------------------------------------------------
# 3,3-quadrangulations of the cylinder
# ---------------------------------------------------------------------------


def _quad33_cut(L: int) -> _Cut:
    """The cut of a quad33 disk with boundary length 6+2L.

    The boundary is read as: triangle 1 cut open at a (positions 0..3),
    the cut path (3..3+L), triangle 2 cut open at b (3+L..6+L), and the
    second copy of the cut path back to a.  Position 3 is glued to 0, and
    position 6+2L-j to 3+j for j = 1..L.
    """
    B = 6 + 2 * L
    keep = list(range(B))
    keep[3] = 0
    for j in range(1, L + 1):
        keep[B - j] = 3 + j
    return _Cut(L, tuple(keep), 0b111, 0b111 << (3 + L))


def _quad33_symmetries(L: int) -> tuple[tuple[int, ...], ...]:
    """The four relabelings of the quad33 disk boundary that keep its cut.

    The reflection r(i) = 3 - i swaps the two copies of the cut path (and
    reverses the faces), the end swap s(i) = i + 3 + L exchanges the ring
    triangles, both mod B = 6 + 2L; with r∘s and the identity they map
    the gluing of ``_quad33_cut(L)`` and its pair of ring triangles to
    themselves.
    """
    B = 6 + 2 * L
    return tuple(
        tuple((sign * i + shift) % B for i in range(B))
        for sign, shift in ((1, 0), (-1, 3), (1, 3 + L), (-1, -L))
    )


def _glue_remap(cut: _Cut, n_total: int) -> list[int]:
    """Dense ids after gluing, for the disk vertices 0..n_total-1.

    Only boundary copies are merged, so internal vertex v goes to v-L-1
    and the map for fewer vertices is a prefix of this one.
    """
    B = len(cut.keep)
    survivors = sorted(set(cut.keep)) + list(range(B, n_total))
    dense = {old: new for new, old in enumerate(survivors)}
    return [dense[cut.keep[v]] for v in range(B)] + [dense[v] for v in range(B, n_total)]


def _glue_quad33(
    faces: tuple[Cycle, ...], n_total: int, L: int, remap: list[int]
) -> _Table:
    """Close a filled disk into the table of a cylinder with two triangle holes.

    ``remap`` takes each disk vertex to its dense id after gluing along
    ``_quad33_cut(L)``.  The filler has refused every loop and every
    glued parallel edge, so each glued dart lies in exactly one face and
    every filling is a map: a gluing that still fails raises instead of
    silently losing a class.
    """
    glued_faces = [tuple(remap[v] for v in f) for f in faces]
    ring1 = tuple(remap[v] for v in (0, 1, 2))
    ring2 = tuple(remap[v] for v in (3 + L, 4 + L, 5 + L))
    hole1 = (ring1[0], ring1[2], ring1[1])
    hole2 = (ring2[0], ring2[2], ring2[1])
    rot = rotation_system_from_faces(glued_faces + [hole1, hole2], n_total - L - 1)
    return _Table(rot, (ring1, ring2))


def generate_quad33(max_vertices: int) -> list[EmbeddedGraph]:
    """All cylinder quadrangulations with two disjoint triangle rings.

    Exhaustive and isomorph-free up to max_vertices.  Every member is
    obtained by cutting along a shortest path between the rings and
    quadrangulating the resulting disk, so iterating over all cut
    lengths and all disk fillings reaches everything.  The filler prunes
    every branch whose gluing would have a loop, a parallel edge or a cut
    longer than the ring distance, so only shortest cuts are glued: a
    longer cut only re-derives a graph.  Cut lengths ascend and
    no cut is shorter than the ring distance, so the first derivation of
    each class is a shortest cut.

    A filling is glued and canonicalized only when its boundary degree
    tuple is least among its images under the four symmetries of the
    cut (``_quad33_symmetries``).  No class is lost.  The filler yields
    every labelled filling of the oriented boundary, and each of its
    refusals (loops, parallel sides, rings closer than L) is invariant
    under those symmetries, since they preserve the gluing and the pair
    of ring triangles.  So with each filling the filler also yields all
    its images, at the same L, and one of them has the least tuple.
    Canonical forms identify mirror images and ring swaps, so an image
    glues into the same class.  Each class therefore keeps the cut
    length of its first derivation, a shortest cut, and the classes and
    their order are those of the unfiltered enumeration; only a class's
    representative may differ.
    """
    if max_vertices < 6:
        raise InvalidParameter("max_vertices must be >= 6")
    return _isomorph_free(_quad33_gluings(max_vertices))


def _quad33_gluings(max_vertices: int) -> Iterator[_Table]:
    """The tables glued from one filling per symmetry orbit of every
    shortest cut, in derivation order."""
    for L in range(1, max_vertices - 4):
        cut = _quad33_cut(L)
        symmetries = _quad33_symmetries(L)
        B, budget = 6 + 2 * L, max_vertices - 5 - L
        remap = _glue_remap(cut, B + budget)
        for faces, n_total in _fill_disk(B, budget, cut=cut):
            if _least_in_boundary_orbit(faces, symmetries):
                yield _glue_quad33(faces, n_total, L, remap)


def is_quad33(g: EmbeddedGraph) -> bool:
    """Structural membership test: two triangle rings, all other faces quads."""
    if len(g.rings) != 2 or any(len(r) != 3 for r in g.rings):
        return False
    fl = g.faces
    holes = set(fl.ring_faces)
    return all(
        len(f) == 4 for i, f in enumerate(fl.faces) if i not in holes
    )


def near_quad33(
    g: EmbeddedGraph, subdivide: Sequence[Optional[tuple[int, int]]]
) -> EmbeddedGraph:
    """Subdivide at most one edge on each ring of a 3,3-quadrangulation."""
    if not is_quad33(g):
        raise InvalidParameter("input is not a cylinder quadrangulation with triangle rings")
    if len(subdivide) != 2:
        raise InvalidParameter("one optional edge per ring is required")
    if all(e is None for e in subdivide):
        return g
    rot = [list(r) for r in g.rotations]
    rings = [list(r) for r in g.rings]
    next_id = g.n
    for i, edge in enumerate(subdivide):
        if edge is None:
            continue
        u, v = edge
        ring = rings[i]
        k = None
        for t in range(len(ring)):
            pair = (ring[t], ring[(t + 1) % len(ring)])
            if pair == (u, v) or pair == (v, u):
                k = t
                break
        if k is None:
            raise EdgeNotOnRing(f"edge {edge} not on ring {tuple(ring)}")
        s = next_id
        next_id += 1
        rot[u][rot[u].index(v)] = s
        rot[v][rot[v].index(u)] = s
        rot.append([u, v])
        ring.insert(k + 1, s)
    return EmbeddedGraph(tuple(tuple(r) for r in rot), tuple(tuple(r) for r in rings))


def subdivision_choices(base: EmbeddedGraph):
    """All (edge or None) picks per ring for near-quadrangulation variants."""
    per_ring = []
    for ring in base.rings:
        per_ring.append(
            [None] + [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        )
    for e1 in per_ring[0]:
        for e2 in per_ring[1]:
            yield (e1, e2)


def generate_near_quad33(max_vertices: int) -> list[EmbeddedGraph]:
    """Every near 3,3-quadrangulation with at most max_vertices, isomorph-free.

    Each quad33 base with each choice of at most one subdivided edge per
    ring, kept when the base's vertices plus its subdivision vertices
    are at most max_vertices.
    """
    return _isomorph_free(
        near_quad33(base, subs)
        for base in generate_quad33(max_vertices)
        for subs in subdivision_choices(base)
        if base.n + sum(e is not None for e in subs) <= max_vertices
    )


def near_quad33_decomposition(
    g: EmbeddedGraph,
) -> Optional[tuple[EmbeddedGraph, tuple[Optional[tuple[int, int]], ...]]]:
    """Recognize a near 3,3-quadrangulation structurally.

    Returns (base quadrangulation, per-ring subdivided edge of the base)
    for the first working choice of suppressed degree-2 ring vertices,
    or None.
    """
    if len(g.rings) != 2 or not all(len(r) in (3, 4) for r in g.rings):
        return None
    options: list[list[Optional[int]]] = []
    for ring in g.rings:
        if len(ring) == 3:
            options.append([None])
        else:
            cands = [v for v in ring if g.degree(v) == 2]
            if not cands:
                return None
            options.append(list(cands))
    for pick in product(*options):
        suppressed = [v for v in pick if v is not None]
        if len(set(suppressed)) != len(suppressed):
            continue  # a vertex subdivides at most one ring
        if not suppressed:
            if is_quad33(g):
                return g, (None, None)
            continue
        rot: dict[int, list[int]] = {v: list(g.rotations[v]) for v in range(g.n)}
        rings = [list(r) for r in g.rings]
        ok = True
        for v in suppressed:
            p, q = rot[v]
            if q in rot[p]:  # suppression would create a parallel edge
                ok = False
                break
            rot[p][rot[p].index(v)] = q
            rot[q][rot[q].index(v)] = p
            del rot[v]
            for ring in rings:
                if v in ring:
                    ring.remove(v)
        if not ok:
            continue
        try:
            base, remap = compress_rotations(rot, rings)
        except CylColorError:
            continue
        if not is_quad33(base):
            continue
        subs: list[Optional[tuple[int, int]]] = []
        for i, v in enumerate(pick):
            if v is None:
                subs.append(None)
            else:
                p, q = g.rotations[v]
                subs.append((remap[p], remap[q]))
        return base, tuple(subs)
    return None


# ---------------------------------------------------------------------------
# pendant ring, grids
# ---------------------------------------------------------------------------


def attach_pendant_ring(g: EmbeddedGraph, v: int) -> EmbeddedGraph:
    """Hang a 4-cycle v u1 u2 u3 inside a face at v and drill a hole in it."""
    if len(g.rings) >= 2:
        raise TooManyRings("graph already has two holes")
    if not (0 <= v < g.n):
        raise InvalidParameter(f"no vertex {v}")
    fl = g.faces
    holes = set(fl.ring_faces)
    target = None
    for i, f in enumerate(fl.faces):
        if i not in holes and v in f:
            target = f
            break
    if target is None:
        raise InvalidParameter(f"vertex {v} lies on hole faces only")
    k = target.index(v)
    p = target[k - 1]
    u1, u2, u3 = g.n, g.n + 1, g.n + 2
    rot = [list(r) for r in g.rotations]
    rv = rot[v]
    j = rv.index(p)
    rv[j + 1 : j + 1] = [u1, u3]
    rot.extend([[v, u2], [u1, u3], [u2, v]])
    rings = g.rings + ((v, u1, u2, u3),)
    return EmbeddedGraph(tuple(tuple(r) for r in rot), rings)


def cylinder_grid(cycle_len: int, layers: int) -> EmbeddedGraph:
    """Cylindrical grid: `layers` concentric cycles of length `cycle_len`."""
    if cycle_len < 3 or layers < 1:
        raise InvalidParameter("need cycle_len >= 3 and layers >= 1")
    c, k = cycle_len, layers

    def vid(i: int, j: int) -> int:
        return i * c + j

    rot = []
    for i in range(k):
        for j in range(c):
            east = vid(i, (j + 1) % c)
            west = vid(i, (j - 1) % c)
            r = [east]
            if i + 1 < k:
                r.append(vid(i + 1, j))
            r.append(west)
            if i > 0:
                r.append(vid(i - 1, j))
            rot.append(tuple(r))
    ring0 = tuple(range(c))
    ring1 = tuple(vid(k - 1, j) for j in range(c))
    return EmbeddedGraph(tuple(rot), rings=(ring0, ring1))


# ---------------------------------------------------------------------------
# framed patched Thomas-Walls enumeration (recognition catalog)
# ---------------------------------------------------------------------------

FRAME_CHOICES = tuple(
    (a, b) for a in (True, False) for b in (True, False)
)


@dataclass(frozen=True)
class FramedRecipe:
    """Reproducible construction of a framed patched chain graph."""

    n: int
    placements: tuple[tuple[int, str], ...]  # (vertex in T'_n, patch EMG text)
    choices: tuple[tuple[bool, bool], tuple[bool, bool]]


def _patched_chain(
    base: EmbeddedGraph, pairs: InterfacePairs, placements
) -> tuple[EmbeddedGraph, InterfacePairs]:
    """``base`` with ``placements`` patched in, and ``pairs`` renumbered to
    match: they are ring vertices, so each keeps its ring position."""
    if not placements:
        return base, pairs
    patched = patch_graph(base, placements)
    renamed = {v: u for r, s in zip(base.rings, patched.rings) for v, u in zip(r, s)}
    first, second = ((renamed[a], renamed[b]) for a, b in (pairs.first, pairs.second))
    return patched, InterfacePairs(first, second)


def build_framed_patched(recipe: FramedRecipe) -> EmbeddedGraph:
    base, pairs = reduced_thomas_walls(recipe.n)
    placements = [(v, parse_emg(text)) for v, text in recipe.placements]
    return frame(*_patched_chain(base, pairs, placements), recipe.choices)


def _independent_subsets(g: EmbeddedGraph, verts: list[int]) -> list[tuple[int, ...]]:
    out = [()]
    for r in range(1, len(verts) + 1):
        for combo in combinations(verts, r):
            if all(not g.has_edge(a, b) for a, b in combinations(combo, 2)):
                out.append(combo)
    return out


def enumerate_framed_patched(
    max_vertices: int, patch_bound: int, above: int = 0
) -> Iterable[tuple[EmbeddedGraph, FramedRecipe]]:
    """Every framed patched chain graph within the given bounds.

    Exhaustive over the chain length, patch placements (all alignments,
    every patch with at most patch_bound internal vertices), and the
    four framing choices per end; the vertex budget prunes assignments.
    Only members with more than ``above`` vertices are yielded, in the
    order of the enumeration without that bound: a placement that stays
    at ``above`` vertices or fewer even with four fresh framing vertices
    is dropped before it is patched.
    Not deduplicated; callers deduplicate by canonical form.
    """
    n = 1
    while 3 * n + 1 <= max_vertices:
        base, pairs = reduced_thomas_walls(n)
        placeable = sorted(
            v
            for v in range(base.n)
            if v not in base.ring_vertices and base.degree(v) == 3
        )
        budget_all = max_vertices - base.n
        cap = min(budget_all - 2, patch_bound)
        pool: list[tuple[EmbeddedGraph, int, str]] = []
        if cap >= 1 and placeable:
            for patch in generate_patches(cap):
                m = patch.n - 6
                for variant in patch_ring_variants(patch):
                    pool.append((variant, m, emit_emg(variant)))

        def assignments(k: int, budget: int):
            if k == 0:
                yield ()
                return
            for item in pool:
                cost = 2 + item[1]
                # the cheapest patch (one hub vertex) costs 3
                if cost + 3 * (k - 1) <= budget:
                    for rest in assignments(k - 1, budget - cost):
                        yield (item,) + rest

        for subset in _independent_subsets(base, placeable):
            for combo in assignments(len(subset), budget_all):
                if base.n + sum(2 + m for _, m, _ in combo) + 4 <= above:
                    continue
                placements = [(v, p) for v, (p, _, _) in zip(subset, combo)]
                texts = tuple((v, t) for v, (_, _, t) in zip(subset, combo))
                patched, mapped = _patched_chain(base, pairs, placements)
                for ch1 in FRAME_CHOICES:
                    for ch2 in FRAME_CHOICES:
                        extra = sum(ch1) + sum(ch2)
                        if not above < patched.n + extra <= max_vertices:
                            continue
                        framed = frame(patched, mapped, (ch1, ch2))
                        yield framed, FramedRecipe(n, texts, (ch1, ch2))
        n += 1


def generate_framed_patched(max_vertices: int, patch_bound: int) -> list[EmbeddedGraph]:
    """Every framed patched chain graph within the bounds, isomorph-free."""
    if max_vertices < 4:
        raise InvalidParameter("max_vertices must be >= 4")
    if patch_bound < 0:
        raise InvalidParameter("patch_bound must be >= 0")
    return _isomorph_free(g for g, _ in enumerate_framed_patched(max_vertices, patch_bound))
