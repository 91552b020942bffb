"""Exact 3-coloring: extension, counting, extendable sets, domination.

One iterative backtracking kernel serves both decision and counting.
It keeps a bitmask of available colors per vertex and an undo trail of
every domain change, and walks the search tree with an explicit branch
stack, so depth is not bounded by the interpreter's recursion limit.
Forced vertices are propagated to a fixpoint once at the root; below
it, only the vertex just assigned is propagated.  Branching takes the
vertex with the fewest available colors (smallest id on ties) and tries
colors in increasing order, which makes the first reported solution
deterministic.

``extension_split`` is the one place that decides which ring
precolorings extend.  Deleting a vertex or an edge can only grow that
set, so criticality tests and domination stop at the first precoloring
that settles the answer instead of comparing whole sets.

``extendable_set`` composes along the chain decomposition of a cylinder
(``surgery.chain_decompose``): the pieces between consecutive cutting
cycles share only those cycles, each of length at most 4, so the
ring-to-ring relation is the composition of one small relation per
piece, and a chain costs linear rather than exponential time in its
length.  It falls back to ``extension_split`` on the whole graph when
the decomposition does not apply (``InvalidParameter``, ``NotTame``,
``AuditFailed``) or has a single piece.  The whole-graph search stays
the oracle the tests compare the composition against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .embedding import EmbeddedGraph, canon_cycle
from .errors import (
    AuditFailed,
    ImproperPrecoloring,
    InvalidParameter,
    NoRings,
    NotTame,
    RingMismatch,
)

COLORS = (1, 2, 3)
_FULL = 0b111
_MASK = {1: 0b001, 2: 0b010, 3: 0b100}
_COLOR_OF = {0b001: 1, 0b010: 2, 0b100: 3}
_BITS = tuple(bin(m).count("1") for m in range(8))


@dataclass
class Precoloring:
    """Partial assignment of ring vertices to colors 1..3."""

    assignments: dict[int, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Precoloring":
        return cls({})

    def validate_for(self, g: EmbeddedGraph) -> None:
        """Check domain, color range, and properness along the ring cycles.

        Properness is required only on ring edges; an assignment that
        clashes across a chord is a legitimate precoloring that simply
        does not extend.
        """
        ring_vs = g.ring_vertices
        for v, c in self.assignments.items():
            if c not in COLORS:
                raise ImproperPrecoloring(f"color {c} out of range at vertex {v}")
            if v not in ring_vs:
                raise ImproperPrecoloring(f"vertex {v} is not a ring vertex")
        for ring in g.rings:
            for a, b in zip(ring, ring[1:] + ring[:1]):
                ca, cb = self.assignments.get(a), self.assignments.get(b)
                if ca is not None and ca == cb:
                    raise ImproperPrecoloring(f"ring edge {a}-{b} monochromatic")


@dataclass(frozen=True)
class ExtendableSet:
    """Exact set of total ring precolorings that extend to the graph.

    Members are color tuples aligned with ``ring_domain`` (the sorted
    ring vertices).
    """

    ring_domain: tuple[int, ...]
    members: frozenset[tuple[int, ...]]


def _propagate(adj, dom, size, trail, queue) -> bool:
    """Remove forced colors outward from the queued singletons until
    fixpoint; False on wipeout.

    Every domain change is pushed on the trail as (vertex, old mask).
    """
    while queue:
        v = queue.pop()
        mask = dom[v]
        for u in adj[v]:
            d = dom[u]
            if d & mask:
                trail.append((u, d))
                d ^= mask
                if not d:
                    return False
                dom[u] = d
                size[u] -= 1
                if not d & (d - 1):
                    queue.append(u)
    return True


def _kernel(adj, fixed: Mapping[int, int], count_mode: bool):
    """Backtracking over bitmask domains with an undo trail.

    Returns the first solution's domain list (or None), or the number of
    solutions in count mode.  The root is propagated to a fixpoint once;
    below it, each assignment is propagated from the assigned vertex
    only, which reaches the same fixpoint.  Branching takes the vertex
    with the fewest colors (smallest id on ties), colors ascending.
    """
    n = len(adj)
    dom = [_FULL] * n
    size = [3] * n
    for v, c in fixed.items():
        dom[v] = _MASK[c]
        size[v] = 1
    trail: list[tuple[int, int]] = []
    if not _propagate(adj, dom, size, trail, list(fixed)):
        return 0 if count_mode else None
    total = 0
    stack: list[list[int]] = []  # [vertex, colors left to try, trail mark]
    while True:
        # dom is a fixpoint here: branch, or record a solution
        if 2 in size:
            v = size.index(2)
            stack.append([v, dom[v], len(trail)])
        elif 3 in size:
            v = size.index(3)
            stack.append([v, _FULL, len(trail)])
        elif count_mode:
            total += 1
        else:
            return dom
        # next child: undo to the top frame's mark and try its next color
        while stack:
            frame = stack[-1]
            v, left, mark = frame
            while len(trail) > mark:
                u, d = trail.pop()
                dom[u] = d
                size[u] = _BITS[d]
            if not left:
                stack.pop()
                continue
            m = left & -left
            frame[1] = left ^ m
            trail.append((v, dom[v]))
            dom[v] = m
            size[v] = 1
            if _propagate(adj, dom, size, trail, [v]):
                break
        else:
            return total if count_mode else None


def _solve_first(adj, fixed) -> dict[int, int] | None:
    dom = _kernel(adj, fixed, False)
    if dom is None:
        return None
    return {v: _COLOR_OF[m] for v, m in enumerate(dom)}


def _solve_count(adj, fixed) -> int:
    return _kernel(adj, fixed, True)


def extend(g: EmbeddedGraph, psi: Precoloring) -> dict[int, int] | None:
    """A proper total 3-coloring agreeing with psi, or None.

    Deterministic: the first solution in the fixed branching order.
    """
    psi.validate_for(g)
    return _solve_first(g.rotations, psi.assignments)


def count_colorings(g: EmbeddedGraph, psi: Precoloring) -> int:
    """Exact number of proper total 3-colorings extending psi."""
    psi.validate_for(g)
    return _solve_count(g.rotations, psi.assignments)


def ring_precolorings(g: EmbeddedGraph) -> Iterable[tuple[tuple[int, ...], dict[int, int]]]:
    """Total ring precolorings proper on the ring cycles, in lexicographic order."""
    domain = tuple(sorted(g.ring_vertices))
    pos = {v: i for i, v in enumerate(domain)}
    earlier: list[list[int]] = [[] for _ in domain]  # ring neighbors placed before
    for ring in g.rings:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            i, j = sorted((pos[a], pos[b]))
            earlier[j].append(i)
    combos: list[tuple[int, ...]] = [()]
    for before in earlier:
        longer = []
        for combo in combos:
            used = {combo[i] for i in before}
            longer.extend(combo + (c,) for c in COLORS if c not in used)
        combos = longer
    for combo in combos:
        yield combo, dict(zip(domain, combo))


def extension_split(adj, g: EmbeddedGraph):
    """Which ring precolorings of g extend under the adjacency ``adj``.

    Returns the extending members (color tuples over the sorted ring
    vertices) and the blocked precolorings, as (tuple, assignment) pairs
    in lexicographic order.  ``adj`` may be g's own rotations or those of
    a subgraph on the same vertex ids that keeps every ring vertex.
    """
    members = set()
    blocked = []
    for combo, fixed in ring_precolorings(g):
        if _solve_first(adj, fixed) is not None:
            members.add(combo)
        else:
            blocked.append((combo, fixed))
    return frozenset(members), blocked


def extendable_set(g: EmbeddedGraph) -> ExtendableSet:
    """The ring precolorings that extend to g.

    Composed piece by piece along g's chain decomposition when it has at
    least two pieces; otherwise every proper ring precoloring is searched
    on the whole graph.
    """
    if not g.rings:
        raise NoRings("graph has no rings")
    members = _members_by_chain(g)
    if members is None:
        members, _ = extension_split(g.rotations, g)
    return ExtendableSet(tuple(sorted(g.ring_vertices)), members)


def _members_by_chain(g: EmbeddedGraph) -> frozenset[tuple[int, ...]] | None:
    """Members of g's extendable set composed along its chain, or None
    when g has no chain of at least two pieces.

    Pieces meet only on their cutting cycles, so a ring precoloring
    extends exactly when some coloring of the cutting cycles extends in
    every piece.  The fold keeps, for each coloring of ring 1, the
    colorings of the current cutting cycle that extend through the pieces
    so far; each piece carries them one cycle further.  Colorings are
    tuples along the cycle's vertex order, so cycles that share vertices
    need no special case.
    """
    from . import surgery  # surgery builds on this module

    try:
        chain = surgery.chain_decompose(g)
    except (InvalidParameter, NotTame, AuditFailed):
        return None
    if chain.n < 2:
        return None
    cycles = [c.vertices for c in chain.cutting_cycles]
    steps = [
        _piece_step(piece, remap, near, far)
        for piece, remap, near, far in zip(chain.pieces, chain.vertex_maps, cycles, cycles[1:])
    ]
    reach = steps[0]
    for step in steps[1:]:
        reach = {
            start: set().union(*(step.get(c, ()) for c in ends))
            for start, ends in reach.items()
        }
    ends_first = cycles[0] + cycles[-1]
    at = [ends_first.index(v) for v in sorted(g.ring_vertices)]
    return frozenset(
        tuple((start + end)[i] for i in at) for start, ends in reach.items() for end in ends
    )


def _piece_step(piece: EmbeddedGraph, remap, near, far):
    """The extendable set of a piece as a map from colorings of its near
    cycle to the colorings of its far cycle that extend with them.

    ``remap`` sends the ids of ``near`` and ``far`` to the piece's ids.
    """
    pos = {v: i for i, v in enumerate(sorted(piece.ring_vertices))}
    at_near = [pos[remap[v]] for v in near]
    at_far = [pos[remap[v]] for v in far]
    step: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for m in extension_split(piece.rotations, piece)[0]:
        step.setdefault(tuple(m[i] for i in at_near), set()).add(tuple(m[i] for i in at_far))
    return step


def _ring_signature(g: EmbeddedGraph):
    return sorted(canon_cycle(r) for r in g.rings)


def _extends_all(g1: EmbeddedGraph, g2: EmbeddedGraph, to_g2) -> bool:
    """True iff every ring precoloring that extends in g1 extends in g2.

    ``to_g2`` turns an assignment on g1's ring vertices into one on
    g2's.  Stops at the first member of g1 that fails in g2.
    """
    for _, fixed in ring_precolorings(g1):
        if _solve_first(g1.rotations, fixed) is None:
            continue
        if _solve_first(g2.rotations, to_g2(fixed)) is None:
            return False
    return True


def dominates(g1: EmbeddedGraph, g2: EmbeddedGraph) -> bool:
    """True iff every ring precoloring extendable in g1 extends in g2.

    Requires both graphs to carry the same labeled rings.
    """
    if not g1.rings or not g2.rings:
        raise NoRings("both graphs need rings")
    if _ring_signature(g1) != _ring_signature(g2):
        raise RingMismatch("graphs do not share the same labeled rings")
    return _extends_all(g1, g2, lambda fixed: fixed)


def members_over(g: EmbeddedGraph, order: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Extendable ring precolorings as tuples over an explicit vertex order."""
    if set(order) != set(g.ring_vertices):
        raise RingMismatch("order must list exactly the ring vertices")
    domain = tuple(sorted(g.ring_vertices))
    pos = {v: i for i, v in enumerate(domain)}
    idx = [pos[v] for v in order]
    return frozenset(
        tuple(m[i] for i in idx) for m in extendable_set(g).members
    )


def dominates_under(
    g1: EmbeddedGraph, g2: EmbeddedGraph, vertex_map: Mapping[int, int]
) -> bool:
    """Domination of g2 by g1 through an explicit ring correspondence.

    ``vertex_map`` sends g2's ring vertices to g1's; it must carry each
    ring of g2 onto a ring of g1 as a cycle.  Used after surgeries that
    renumber vertices.
    """
    if not g1.rings or not g2.rings:
        raise NoRings("both graphs need rings")
    if not set(g2.ring_vertices) <= set(vertex_map):
        raise RingMismatch("vertex map does not cover the ring vertices")
    mapped = sorted(canon_cycle([vertex_map[v] for v in r]) for r in g2.rings)
    if mapped != _ring_signature(g1):
        raise RingMismatch("vertex map does not carry rings onto rings")
    ring2 = sorted(g2.ring_vertices)
    return _extends_all(
        g1, g2, lambda fixed: {v: fixed[vertex_map[v]] for v in ring2}
    )
