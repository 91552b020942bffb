"""Exact 3-coloring: extension, counting, extendable sets, domination.

One iterative backtracking kernel decides extension.  It keeps a
bitmask of available colors per vertex and an undo trail of every
domain change, and walks the search tree with an explicit branch
stack, so depth is not bounded by the interpreter's recursion limit.
Forced vertices are propagated to a fixpoint once at the root; below
it, only the vertex just assigned is propagated.  Branching takes the
vertex with the fewest available colors (smallest id on ties) and tries
colors in increasing order, which makes the first reported solution
deterministic.  ``extend`` asks it for one coloring.

One frontier sweep (the transfer-matrix method for strips; dynamic
programming over the path decomposition that a BFS order gives) counts
colorings and computes which ring precolorings extend.  It places the
vertices one by one and maps each coloring of the live frontier to a
value, combining the values that reach the same frontier coloring:
``count_colorings`` adds counts, and the ring relation ORs bitmasks
over the colorings of ring 1.  Its cost grows with the widest BFS
layer, not with the number of colorings or of ring precolorings, so
long chains, tubes and grids stay linear in their length.  Renaming the
three colors maps the ring relation onto itself, so its sweep keeps one
frontier coloring per orbit of the six renamings, in first-occurrence
normal form, with its bitmask renamed alike, and expands each orbit
only at the end: the sweep hands back the plain relation, each coloring
of the final frontier with the bitmask of the ring-1 colorings that
reach it.  Counting keeps every frontier coloring, since fixed colors
break the symmetry.  The relation is read by cheap readers:
``extendable_set`` and domination read the member tuples through one
index template, and ``blocked_precolorings`` yields the precolorings
that do not extend, lazily and in lexicographic order, testing each by
one lookup and one bit and building an assignment only for a blocked
one that is drawn; the deletion test of criticality
(``surgery._DeletionTest``) re-tests those with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from operator import add, itemgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .embedding import EmbeddedGraph, bfs_layers, canon_cycle
from .errors import ImproperPrecoloring, NoRings, RingMismatch

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


def _kernel(adj, fixed: Mapping[int, int]):
    """Backtracking over bitmask domains with an undo trail.

    Returns the first solution's domain list, or None.  The root is
    propagated to a fixpoint once; below it, each assignment is
    propagated from the assigned vertex only, which reaches the same
    fixpoint.  Branching takes the vertex with the fewest colors
    (smallest id on ties), colors ascending.
    """
    n = len(adj)
    dom = [_FULL] * n
    size = [3] * n
    for v, c in fixed.items():
        dom[v] = _MASK[c]
        size[v] = 1
    trail: list[tuple[int, int]] = []
    if not _propagate(adj, dom, size, trail, list(fixed)):
        return None
    stack: list[list[int]] = []  # [vertex, colors left to try, trail mark]
    while True:
        # dom is a fixpoint here: branch, or return the solution
        if 2 in size:
            v = size.index(2)
            stack.append([v, dom[v], len(trail)])
        elif 3 in size:
            v = size.index(3)
            stack.append([v, _FULL, len(trail)])
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
            return None


def _solve_first(adj, fixed) -> dict[int, int] | None:
    dom = _kernel(adj, fixed)
    if dom is None:
        return None
    return {v: _COLOR_OF[m] for v, m in enumerate(dom)}


def extend(g: EmbeddedGraph, psi: Precoloring) -> dict[int, int] | None:
    """A proper total 3-coloring agreeing with psi, or None.

    Deterministic: the first solution in the fixed branching order.
    """
    psi.validate_for(g)
    return _solve_first(g.rotations, psi.assignments)


def count_colorings(g: EmbeddedGraph, psi: Precoloring) -> int:
    """Exact number of proper total 3-colorings extending psi.

    One frontier sweep in BFS order from ring 1 (from vertex 0 without
    rings), summing the counts that reach each frontier coloring.
    """
    psi.validate_for(g)
    adj = g.rotations
    order = _sweep_order(adj, sorted(g.rings[0]) if g.rings else [0])
    _, state = _frontier(adj, order, (), {(): 1}, set(), psi.assignments, add, None)
    return sum(state.values())


def _picker(idx: Sequence[int]):
    """``seq -> tuple(seq[i] for i in idx)``, as one call."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i = idx[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _ring_combos(domain: Sequence[int], rings) -> Iterator[tuple[int, ...]]:
    """The color tuples over ``domain`` (the sorted ring vertices) that
    are proper on the ring cycles, in lexicographic order, one at a time.

    ``combo`` is the stack: position i holds the color tried there, 0
    when unset, and the next color up that no ring neighbour placed
    before i has is tried when the search comes back to i.
    """
    pos = {v: i for i, v in enumerate(domain)}
    earlier: list[list[int]] = [[] for _ in domain]  # ring neighbours placed before
    for ring in rings:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            i, j = sorted((pos[a], pos[b]))
            earlier[j].append(i)
    last = len(domain) - 1
    if last < 0:
        yield ()
        return
    combo = [0] * len(domain)
    i = 0
    while i >= 0:
        used = [combo[j] for j in earlier[i]]
        c = combo[i] + 1
        while c in used:
            c += 1
        if c > 3:
            combo[i] = 0
            i -= 1
        else:
            combo[i] = c
            if i == last:
                yield tuple(combo)
            else:
                i += 1


def ring_precolorings(g: EmbeddedGraph) -> Iterable[tuple[tuple[int, ...], dict[int, int]]]:
    """Total ring precolorings proper on the ring cycles, in lexicographic order."""
    domain = tuple(sorted(g.ring_vertices))
    for combo in _ring_combos(domain, g.rings):
        yield combo, dict(zip(domain, combo))


def _sweep_order(adj, start: Sequence[int]) -> list[int]:
    """BFS layers from ``start`` (the graph is connected), each by id."""
    return [v for layer in bfs_layers(adj, start) for v in sorted(layer)]


def _frontier(adj, order, live, state, stay, fixed: Mapping[int, int], join, settle):
    """Place the vertices of ``order`` one by one; the final live
    frontier and state.

    ``state`` maps each coloring of ``live`` (a tuple over it) to a
    value.  Placing a vertex extends each key by every color the vertex
    may take (its fixed color, or any) that no live neighbour has, and
    ``join`` combines the values that reach the same key.  When
    ``settle`` is given, it maps each placement's new state to the one
    carried on (the relation sweep folds the color renamings there).  A
    vertex leaves the frontier once all its neighbours are placed,
    unless it is in ``stay``.  The vertices outside ``order`` count as
    placed, so those in ``live`` must hold every placed neighbour of
    ``order``.
    """
    left = [0] * len(adj)  # unplaced neighbours
    for v in order:
        for u in adj[v]:
            left[u] += 1
    live = list(live)
    for v in order:
        slot = {u: i for i, u in enumerate(live)}
        near = _picker([slot[u] for u in adj[v] if u in slot])
        for u in adj[v]:
            left[u] -= 1
        keep = [i for i, u in enumerate(live) if left[u] or u in stay]
        kept = _picker(keep)
        stays = left[v] > 0 or v in stay
        live = [live[i] for i in keep] + [v] * stays
        colors = (fixed[v],) if v in fixed else COLORS
        grown: dict[tuple[int, ...], int] = {}
        for key, value in state.items():
            used = near(key)
            base = kept(key)
            for c in colors:
                if c not in used:
                    k = base + (c,) if stays else base
                    grown[k] = join(grown.get(k, 0), value)
        state = grown if settle is None else settle(grown)
    return live, state


# The six renamings of the colors, identity first: _PERMS[i][c] is the
# image of color c, and _RENAME[i] is the same map as a bytes.translate
# table.  _COMPOSE[i][j] is the index of renaming by _PERMS[j], then by
# _PERMS[i].  _OPENING sends the first two colors of a tuple in order of
# appearance (fewer if it has fewer) to the renaming that numbers them
# 1, 2 and the colors it lacks upwards in order.
_PERMS = tuple((0,) + p for p in permutations(COLORS))
_RENAME = tuple(bytes(p) + bytes(range(4, 256)) for p in _PERMS)
_COMPOSE = tuple(
    tuple(_PERMS.index(tuple(p[c] for c in q)) for q in _PERMS) for p in _PERMS
)
_OPENING = {  # built from the last renaming down, so the first one wins
    bytes(sorted(COLORS, key=p.__getitem__)[:m]): i
    for i, p in reversed(list(enumerate(_PERMS)))
    for m in range(3)
}


def _normal(key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The first-occurrence normal form of a color tuple (its colors
    renamed 1, 2, 3 in order of first appearance), and the index in
    ``_PERMS`` of the renaming that gives it.

    The second color to appear is the first one after the opening run
    of the first."""
    b = bytes(key)
    head = b[:1]
    i = _OPENING[head + b.lstrip(head)[:1]]
    return tuple(b.translate(_RENAME[i])), i


def _renamed(mask: int, i: int, ones: int) -> int:
    """A bitmask over ``_Swept.starts`` with every start renamed by
    ``_PERMS[i]``; ``ones`` has the first bit of every orbit."""
    out = 0
    for j, to in enumerate(_COMPOSE[i]):
        out |= (mask >> j & ones) << to
    return out


@dataclass(frozen=True)
class _Swept:
    """The ring relation of a graph, as one frontier sweep leaves it.

    ``starts`` lists the colorings of ring 1 (tuples over its sorted
    vertices) orbit by orbit: ``starts[6 * k + j]`` is the k-th one in
    normal form (see ``_normal``) renamed by ``_PERMS[j]``.
    ``relation`` maps each coloring of ``live`` (the vertices of the
    rings after the first, and possibly some of ring 1) to the bitmask
    of the starts that extend together with it; a coloring that no start
    reaches has no entry.
    """

    ring1: tuple[int, ...]
    starts: list[tuple[int, ...]]
    live: tuple[int, ...]
    relation: dict[tuple[int, ...], int]


def _sweep(g: EmbeddedGraph) -> _Swept:
    """Sweep g from ring 1 and return the relation.

    Ring 1 is placed first, all of it kept live, which gives its
    colorings (proper on every edge among its vertices).  The other
    vertices follow in BFS order, and ``|`` joins the bits of the starts
    that reach the same frontier coloring.  The vertices of the other
    rings stay to the end.

    Renaming the colors of a partial coloring gives a partial coloring,
    so the sweep keeps one frontier coloring per orbit of the six
    renamings: it starts from the ring-1 colorings in normal form, and
    after each placement renames every new key to its normal form and
    its mask by the same renaming (both memoized for this sweep).  The
    pairs kept then meet every orbit of the pairs that extend, so the
    relation is the union of the six renamings of the final state, each
    key and its mask renamed alike.  A key that a renaming fixes collects
    its images' bits by itself.
    """
    adj = g.rotations
    ring1 = sorted(g.rings[0]) if g.rings else []
    images: list[dict[int, int]] = [{} for _ in _PERMS]
    normal: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    ones = 0  # set once the starts are known; the seeding's masks are 0

    def settle(grown: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        state: dict[tuple[int, ...], int] = {}
        for k, mask in grown.items():
            hit = normal.get(k)
            if hit is None:
                hit = normal[k] = _normal(k)
            key, i = hit
            if i:
                seen = images[i]
                renamed = seen.get(mask)
                if renamed is None:
                    renamed = seen[mask] = _renamed(mask, i, ones)
                mask = renamed
            state[key] = state.get(key, 0) | mask
        return state

    _, seeded = _frontier(adj, ring1, (), {(): 0}, set(ring1), {}, or_, settle)
    starts = [tuple(bytes(s).translate(r)) for s in seeded for r in _RENAME]
    ones = sum(1 << 6 * k for k in range(len(seeded)))
    order = _sweep_order(adj, ring1 or [0])[len(ring1):]
    stay = set().union(*g.rings[1:])
    state = {s: 1 << 6 * k for k, s in enumerate(seeded)}
    live, state = _frontier(adj, order, ring1, state, stay, {}, or_, settle)
    relation: dict[tuple[int, ...], int] = {}
    for key, mask in state.items():
        colors = bytes(key)
        for i, r in enumerate(_RENAME):
            k = tuple(colors.translate(r))
            relation[k] = relation.get(k, 0) | (_renamed(mask, i, ones) if i else mask)
    return _Swept(tuple(ring1), starts, tuple(live), relation)


def _members(sw: _Swept, order: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The extending ring precolorings, as color tuples over ``order``
    (the ring vertices).

    Each member is read from a start followed by a frontier coloring
    through one index template.
    """
    where = {v: i for i, v in enumerate(sw.ring1)}
    where.update((v, len(sw.ring1) + i) for i, v in enumerate(sw.live))
    fill = _picker([where[v] for v in order])
    starts = sw.starts
    members = set()
    for key, mask in sw.relation.items():
        while mask:
            low = mask & -mask
            members.add(fill(starts[low.bit_length() - 1] + key))
            mask ^= low
    return frozenset(members)


def blocked_precolorings(g: EmbeddedGraph) -> Iterator[dict[int, int]]:
    """The ring precolorings of g that do not extend, lazily, in the
    lexicographic order of ``ring_precolorings``.

    Each precoloring is tested by one lookup of its frontier part in the
    relation and the bit of its ring-1 part, and an assignment is built
    only for a blocked one, when it is drawn.
    """
    sw = _sweep(g)
    domain = tuple(sorted(g.ring_vertices))
    pos = {v: i for i, v in enumerate(domain)}
    on_ring1 = _picker([pos[v] for v in sw.ring1])
    on_live = _picker([pos[v] for v in sw.live])
    index = {s: j for j, s in enumerate(sw.starts)}
    relation = sw.relation
    for combo in _ring_combos(domain, g.rings):
        # a ring-1 coloring improper on a chord has no bit and never extends
        j = index.get(on_ring1(combo))
        if j is None or not relation.get(on_live(combo), 0) >> j & 1:
            yield dict(zip(domain, combo))


def _extendable(g: EmbeddedGraph) -> frozenset[tuple[int, ...]]:
    return _members(_sweep(g), sorted(g.ring_vertices))


def extendable_set(g: EmbeddedGraph) -> ExtendableSet:
    """The ring precolorings that extend to g."""
    if not g.rings:
        raise NoRings("graph has no rings")
    return ExtendableSet(tuple(sorted(g.ring_vertices)), _extendable(g))


def _ring_signature(g: EmbeddedGraph):
    return sorted(canon_cycle(r) for r in g.rings)


def dominates(g1: EmbeddedGraph, g2: EmbeddedGraph) -> bool:
    """True iff every ring precoloring extendable in g1 extends in g2.

    Requires both graphs to carry the same labeled rings.
    """
    if not g1.rings or not g2.rings:
        raise NoRings("both graphs need rings")
    if _ring_signature(g1) != _ring_signature(g2):
        raise RingMismatch("graphs do not share the same labeled rings")
    return _extendable(g1) <= _extendable(g2)


def members_over(g: EmbeddedGraph, order: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """Extendable ring precolorings as tuples over an explicit vertex order."""
    if set(order) != set(g.ring_vertices):
        raise RingMismatch("order must list exactly the ring vertices")
    if not g.rings:
        raise NoRings("graph has no rings")
    return _members(_sweep(g), order)


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
    order = [vertex_map[v] for v in sorted(g2.ring_vertices)]
    return members_over(g1, order) <= _extendable(g2)
