"""Combinatorial maps on the sphere with up to two holes.

A graph is stored as a rotation system: for every vertex, the cyclic
clockwise order of its neighbors.  Faces are traced with the successor
rule: the dart (u, v) is followed by (v, w) where w comes right after u
in the rotation of v.  Holes are designated by rings, cycles that must
bound faces of the traced map.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EMGParseError,
    EulerViolation,
    MalformedRotation,
    NotACycle,
)

Cycle = tuple[int, ...]


def canon_cycle(seq: Sequence[int]) -> Cycle:
    """Smallest tuple representing a cyclic sequence up to rotation and reflection.

    That tuple starts with the smallest element, so the only candidates
    are the walks both ways from each position of it.
    """
    fwd = tuple(seq)
    low = min(fwd)
    cands = []
    for i, x in enumerate(fwd):
        if x == low:
            walk = fwd[i:] + fwd[:i]
            cands += (walk, walk[:1] + walk[:0:-1])
    return min(cands)


@dataclass(frozen=True)
class FaceList:
    """All face walks of a map, with the indices of the hole faces."""

    faces: tuple[Cycle, ...]
    ring_faces: tuple[int, ...]


@dataclass(frozen=True)
class CycleRef:
    """A cycle of a host graph tagged with its contractibility."""

    vertices: Cycle
    contractible: bool


def _trace(rotations: Sequence[Sequence[int]]) -> tuple[tuple[Cycle, ...], dict]:
    """Trace all faces; returns (faces, dart -> face index)."""
    index = [{u: i for i, u in enumerate(rot)} for rot in rotations]
    dart_face: dict[tuple[int, int], int] = {}
    faces: list[Cycle] = []
    for u0 in range(len(rotations)):
        for v0 in rotations[u0]:
            if (u0, v0) in dart_face:
                continue
            walk = []
            a, b = u0, v0
            while (a, b) not in dart_face:
                dart_face[(a, b)] = len(faces)
                walk.append(a)
                rot = rotations[b]
                a, b = b, rot[(index[b][a] + 1) % len(rot)]
            faces.append(tuple(walk))
    return tuple(faces), dart_face


@dataclass(frozen=True)
class EmbeddedGraph:
    """Immutable sphere map with 0, 1, or 2 holes.

    ``rotations[v]`` is the clockwise cyclic order of the neighbors of
    vertex ``v``; vertices are dense integers.  ``rings`` lists the hole
    boundaries as cyclic vertex sequences; each must bound a distinct
    face of the traced map.
    """

    rotations: tuple[tuple[int, ...], ...]
    rings: tuple[Cycle, ...] = ()

    def __post_init__(self):
        rot = tuple(tuple(r) for r in self.rotations)
        rings = tuple(tuple(r) for r in self.rings)
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "rings", rings)
        self._validate()

    # -- validation ---------------------------------------------------

    def _validate(self) -> None:
        rot = self.rotations
        n = len(rot)
        if n == 0:
            raise MalformedRotation("empty graph")
        nbr_sets = []
        for v, row in enumerate(rot):
            for u in row:
                if not (0 <= u < n):
                    raise MalformedRotation(f"vertex {u} out of range")
                if u == v:
                    raise MalformedRotation(f"loop at vertex {v}")
            s = set(row)
            if len(s) != len(row):
                raise MalformedRotation(f"parallel edge at vertex {v}")
            nbr_sets.append(s)
        for v in range(n):
            for u in nbr_sets[v]:
                if v not in nbr_sets[u]:
                    raise MalformedRotation(f"asymmetric edge {v}-{u}")
        if sum(map(len, bfs_layers(rot, [0]))) != n:
            raise EulerViolation("graph is disconnected; not a single sphere map")

        faces, dart_face = _trace(rot)
        edge_count = sum(len(r) for r in rot) // 2
        if n - edge_count + len(faces) != 2:
            raise EulerViolation(
                f"V-E+F = {n}-{edge_count}+{len(faces)} != 2; not a sphere embedding"
            )

        if len(self.rings) > 2:
            raise MalformedRotation("at most two holes are supported")
        ring_faces = self._match_rings(faces, dart_face)

        object.__setattr__(self, "_faces", faces)
        object.__setattr__(self, "_dart_face", dart_face)
        object.__setattr__(self, "_ring_faces", ring_faces)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in nbr_sets))

    def _match_rings(self, faces: tuple[Cycle, ...], dart_face: dict) -> tuple[int, ...]:
        candidates: list[list[int]] = []
        n = len(self.rotations)
        for ring in self.rings:
            if len(ring) < 3 or len(set(ring)) != len(ring):
                raise MalformedRotation(f"ring {ring} is not a cycle")
            if min(ring) < 0 or max(ring) >= n:
                raise MalformedRotation(f"ring {ring} has a vertex out of range")
            for a, b in zip(ring, ring[1:] + ring[:1]):
                if b not in self.rotations[a]:
                    raise MalformedRotation(f"ring edge {a}-{b} missing")
            # a face bounded by the ring traverses its edge r0-r1 one way
            rc = canon_cycle(ring)
            at_edge = {dart_face[(ring[0], ring[1])], dart_face[(ring[1], ring[0])]}
            matches = [
                i
                for i in sorted(at_edge)
                if len(faces[i]) == len(ring) and canon_cycle(faces[i]) == rc
            ]
            if not matches:
                raise MalformedRotation(f"ring {ring} is not a face boundary")
            candidates.append(matches)
        if len(candidates) <= 1:
            return tuple(c[0] for c in candidates)
        for i in candidates[0]:
            for j in candidates[1]:
                if i != j:
                    return (i, j)
        raise MalformedRotation("rings do not bound distinct faces")

    # -- basic accessors ----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.rotations) // 2

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.rotations[u] if u < v]

    @property
    def ring_vertices(self) -> frozenset[int]:
        return frozenset(v for ring in self.rings for v in ring)

    def ring_edge_set(self) -> frozenset[frozenset[int]]:
        out = set()
        for ring in self.rings:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                out.add(frozenset((a, b)))
        return frozenset(out)

    @property
    def faces(self) -> FaceList:
        return FaceList(self._faces, self._ring_faces)

    def face_of_dart(self, u: int, v: int) -> int:
        return self._dart_face[(u, v)]

    def with_rings(self, rings: Iterable[Sequence[int]]) -> "EmbeddedGraph":
        """Same map with a different hole designation."""
        return EmbeddedGraph(self.rotations, tuple(tuple(r) for r in rings))

    def __repr__(self) -> str:  # pragma: no cover
        return f"EmbeddedGraph(n={self.n}, e={self.edge_count}, rings={len(self.rings)})"


# -- map operations -------------------------------------------------------


def _check_cycle(g: EmbeddedGraph, cycle: Sequence[int]) -> Cycle:
    cyc = tuple(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc) or not all(0 <= v < g.n for v in cyc):
        raise NotACycle(f"{cyc} is not a simple cycle")
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if not g.has_edge(a, b):
            raise NotACycle(f"{cyc}: missing edge {a}-{b}")
    return cyc


def _face_sides(g: EmbeddedGraph, cycle: Cycle) -> tuple[set[int], set[int]]:
    """Split the faces of g into the two regions separated by the cycle."""
    cut = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        cut.add(frozenset((a, b)))
    parent = list(range(len(g._faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        if frozenset((u, v)) in cut:
            continue
        a, b = find(g._dart_face[(u, v)]), find(g._dart_face[(v, u)])
        if a != b:
            parent[a] = b
    comps: dict[int, set[int]] = {}
    for i in range(len(g._faces)):
        comps.setdefault(find(i), set()).add(i)
    groups = list(comps.values())
    if len(groups) != 2:
        raise NotACycle(f"{cycle} does not separate the sphere into two regions")
    return groups[0], groups[1]


def _hole_crossing(g: EmbeddedGraph) -> frozenset[tuple[int, int]]:
    """The edges, as darts of both directions, that one dual path from
    hole face 1 to hole face 2 crosses; found on first use and kept on g.

    The path is a BFS path over the faces, so it crosses each edge at
    most once.
    """
    crossed = g.__dict__.get("_crossed")
    if crossed is None:
        hole1, hole2 = g._ring_faces
        via: dict[int, tuple[int, int] | None] = {hole1: None}
        queue = deque([hole1])
        while hole2 not in via:
            f = queue.popleft()
            walk = g._faces[f]
            for a, b in zip(walk, walk[1:] + walk[:1]):
                h = g._dart_face[(b, a)]
                if h not in via:
                    via[h] = (a, b)
                    queue.append(h)
        darts = []
        f = hole2
        while via[f] is not None:
            a, b = via[f]
            darts += [(a, b), (b, a)]
            f = g._dart_face[(a, b)]
        crossed = frozenset(darts)
        object.__setattr__(g, "_crossed", crossed)
    return crossed


def is_contractible(g: EmbeddedGraph, cycle: Sequence[int]) -> bool:
    """True iff one side of the cycle contains no hole.

    On the sphere or the disk every cycle is contractible.  On the
    cylinder a cycle is non-contractible exactly when it separates the
    two holes, that is, when a dual path from one hole to the other
    crosses it an odd number of times: every face lies on one side of a
    simple cycle, and a crossing changes side exactly at a cycle edge.
    """
    cyc = _check_cycle(g, cycle)
    if len(g._ring_faces) < 2:
        return True
    crossed = _hole_crossing(g)
    return not sum(d in crossed for d in zip(cyc, cyc[1:] + cyc[:1])) % 2


def bfs_layers(
    adj: Sequence[Iterable[int]], sources: Iterable[int], avoid: Iterable[int] = ()
) -> Iterator[list[int]]:
    """Breadth-first layers from ``sources`` over neighbour lists, never
    entering ``avoid``.

    Layer 0 is the sources that are not in ``avoid``; layer d is the
    vertices first reached at distance d, in the order they are reached.
    ``adj`` is indexed by vertex: a list of rows or a dict of rows.
    """
    seen = set(avoid)
    layer = []
    for v in sources:
        if v not in seen:
            seen.add(v)
            layer.append(v)
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt


def distance(g: EmbeddedGraph, h1: Iterable[int], h2: Iterable[int]) -> float:
    """Length of a shortest path with one end in each set (0 if they meet).

    Returns math.inf when no path exists.
    """
    src = set(h1)
    dst = set(h2)
    if not src or not dst:
        raise ValueError("both vertex sets must be nonempty")
    for d, layer in enumerate(bfs_layers(g.rotations, src)):
        if not dst.isdisjoint(layer):
            return d
    return math.inf


def _cycles_up_to(
    g: EmbeddedGraph, max_len: int, within: Iterable[int] | None = None
) -> list[Cycle]:
    """All cycles of length <= max_len (optionally inside a vertex set).
    A path's last vertex, at length max_len, must close it at the root."""
    allowed = set(within) if within is not None else set(range(g.n))
    out: set[Cycle] = set()
    for root in sorted(allowed):
        closing = set(g.rotations[root])
        stack = [(root, [root])]
        while stack:
            v, path = stack.pop()
            for u in g.rotations[v]:
                if u == root and len(path) >= 3 and path[1] < path[-1]:
                    out.add(tuple(path))
                elif (
                    u > root
                    and u in allowed
                    and u not in path
                    and (len(path) < max_len - 1 or (len(path) == max_len - 1 and u in closing))
                ):
                    stack.append((u, path + [u]))
    return sorted(out, key=lambda c: (tuple(sorted(c)), c))


def enumerate_short_cycles(
    g: EmbeddedGraph, max_len: int, only_noncontractible: bool = False
) -> list[CycleRef]:
    """All cycles of length <= max_len, tagged by contractibility.

    Deterministic order: lexicographic by sorted vertex list, then by
    the cycle sequence itself.
    """
    refs = [
        CycleRef(c, is_contractible(g, c)) for c in _cycles_up_to(g, max_len)
    ]
    if only_noncontractible:
        refs = [r for r in refs if not r.contractible]
    return refs


def is_tame(g: EmbeddedGraph) -> bool:
    """No contractible triangles, and all triangles pairwise vertex-disjoint.

    Each triangle u < v < w is found once, as a common neighbour w of an
    edge uv.
    """
    rot = g.rotations
    used: set[int] = set()
    for u in range(g.n):
        around_u = set(rot[u])
        for v in rot[u]:
            if v <= u:
                continue
            for w in around_u.intersection(rot[v]):
                if w <= v:
                    continue
                if used.intersection((u, v, w)) or is_contractible(g, (u, v, w)):
                    return False
                used.update((u, v, w))
    return True


def relabel(g: EmbeddedGraph, perm: Sequence[int]) -> EmbeddedGraph:
    """Apply the permutation old id -> perm[old id]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation")
    rot: list[tuple[int, ...]] = [()] * g.n
    for v in range(g.n):
        rot[perm[v]] = tuple(perm[u] for u in g.rotations[v])
    rings = tuple(tuple(perm[v] for v in ring) for ring in g.rings)
    return EmbeddedGraph(tuple(rot), rings)


def compress_rotations(
    rot: dict[int, Sequence[int]], rings: Iterable[Sequence[int]]
) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Build a map from a rotation table on sparse ids.

    The ids are renumbered densely in increasing order; returns the map
    and the old-to-new id map.
    """
    ids = sorted(rot)
    remap = {old: new for new, old in enumerate(ids)}
    rotations = tuple(tuple(remap[u] for u in rot[old]) for old in ids)
    new_rings = tuple(tuple(remap[v] for v in ring) for ring in rings)
    return EmbeddedGraph(rotations, new_rings), remap


def reflected(g: EmbeddedGraph) -> EmbeddedGraph:
    """Mirror image of the map (all rotations reversed)."""
    return EmbeddedGraph(tuple(tuple(reversed(r)) for r in g.rotations), g.rings)


def rotation_system_from_faces(
    faces: Iterable[Sequence[int]], n: int
) -> tuple[tuple[int, ...], ...]:
    """Reconstruct rotations from a consistently oriented face system.

    Every dart must appear in exactly one face walk.  Raises
    MalformedRotation when the face system is not a valid sphere map
    (dart used twice, or the corners at a vertex do not close into a
    single cycle).
    """
    succ: list[dict[int, int]] = [dict() for _ in range(n)]
    for f in faces:
        k = len(f)
        for i in range(k):
            u, v, w = f[i], f[(i + 1) % k], f[(i + 2) % k]
            if u in succ[v]:
                raise MalformedRotation(f"dart {u}->{v} used twice")
            succ[v][u] = w
    rot: list[tuple[int, ...]] = []
    for v in range(n):
        m = succ[v]
        if not m:
            raise MalformedRotation(f"vertex {v} has no incident dart")
        start = next(iter(sorted(m)))
        cycle = [start]
        cur = m[start]
        while cur != start:
            if cur in cycle or cur not in m:
                raise MalformedRotation(f"corners at vertex {v} do not close")
            cycle.append(cur)
            cur = m[cur]
        if len(cycle) != len(m):
            raise MalformedRotation(f"corners at vertex {v} split into several cycles")
        rot.append(tuple(cycle))
    return tuple(rot)


# -- EMG text format -----------------------------------------------------


def emit_emg(g: EmbeddedGraph) -> str:
    """Serialize to the EMG line format (canonical ordering)."""
    lines = ["emg 1", f"vertices {g.n}", f"rings {len(g.rings)}"]
    for ring in g.rings:
        lines.append("ring " + str(len(ring)) + " " + " ".join(map(str, ring)))
    for v in range(g.n):
        lines.append(f"rot {v}: " + " ".join(map(str, g.rotations[v])))
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[list[str]]:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    return rows


def _parse_rows(rows: list[list[str]]) -> EmbeddedGraph:
    try:
        if rows[0] != ["emg", "1"]:
            raise EMGParseError("missing 'emg 1' header")
        if rows[1][0] != "vertices" or len(rows[1]) != 2:
            raise EMGParseError("missing vertex count")
        n = int(rows[1][1])
        if rows[2][0] != "rings" or len(rows[2]) != 2:
            raise EMGParseError("missing ring count")
        k = int(rows[2][1])
        if k not in (0, 1, 2):
            raise EMGParseError("ring count must be 0, 1, or 2")
        idx = 3
        rings = []
        for _ in range(k):
            row = rows[idx]
            idx += 1
            if row[0] != "ring":
                raise EMGParseError("expected ring line")
            length = int(row[1])
            verts = [int(t) for t in row[2:]]
            if len(verts) != length:
                raise EMGParseError("ring length mismatch")
            rings.append(tuple(verts))
        if n > len(rows) - idx:  # checked before the tables of size n are built
            raise EMGParseError(f"{n} vertices but {len(rows) - idx} rot lines")
        rotations: list[tuple[int, ...]] = [()] * n
        seen = [False] * n
        for _ in range(n):
            row = rows[idx]
            idx += 1
            if row[0] != "rot" or not row[1].endswith(":"):
                raise EMGParseError("expected rot line")
            v = int(row[1][:-1])
            if not (0 <= v < n) or seen[v]:
                raise EMGParseError(f"bad rot vertex {v}")
            seen[v] = True
            rotations[v] = tuple(int(t) for t in row[2:])
        if idx != len(rows):
            raise EMGParseError("trailing garbage after rotation lines")
    except (IndexError, ValueError) as exc:
        raise EMGParseError(f"malformed EMG: {exc}") from exc
    return EmbeddedGraph(tuple(rotations), tuple(rings))


def parse_emg(text: str) -> EmbeddedGraph:
    """Parse a single EMG record; rejects trailing garbage."""
    rows = _content_lines(text)
    if not rows:
        raise EMGParseError("empty input")
    return _parse_rows(rows)


def parse_emg_stream(text: str) -> list[EmbeddedGraph]:
    """Parse a concatenation of EMG records (split on 'emg 1' headers)."""
    rows = _content_lines(text)
    if not rows:
        return []
    chunks: list[list[list[str]]] = []
    for row in rows:
        if row == ["emg", "1"]:
            chunks.append([])
        elif not chunks:
            raise EMGParseError("content before first 'emg 1' header")
        else:
            chunks[-1].append(row)
    return [_parse_rows([["emg", "1"]] + chunk) for chunk in chunks]
