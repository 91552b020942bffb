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
long chains, tubes and grids stay linear in their length.  A sweep
raises TooLarge rather than hold more than ``_MAX_STATES`` frontier
colorings after a placement; the relation sweep also stops when its
ring-1 masks would be wider than the square root of that bound or its
six-way expansion larger than the bound, and the readers stop before
building more than ``_MAX_STATES`` member tuples.  Renaming the
three colors maps the ring relation onto itself, so its sweep pins one
edge of ring 1 to the colors 1 and 2, which leaves one ring-1 coloring
per orbit of the six renamings, and renames the final state six ways at
the end: the sweep hands back the plain relation, each coloring of the
final frontier with the bitmask of the ring-1 colorings that reach it.
Counting pins nothing, since fixed colors break the symmetry.  The
relation is read by cheap readers: ``extendable_set`` and domination
read the member tuples through one index template, and
``blocked_precolorings`` yields the precolorings that do not extend,
lazily and in lexicographic order, testing each by one lookup and one
bit and building an assignment only for a blocked one that is drawn;
the deletion test of criticality (``surgery._DeletionTest``) re-tests
those with the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, permutations
from operator import add, itemgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .embedding import EmbeddedGraph, bfs_layers, canon_cycle
from .errors import ImproperPrecoloring, NoRings, RingMismatch, TooLarge

COLORS = (1, 2, 3)
_FULL = 0b111
_MASK = {1: 0b001, 2: 0b010, 3: 0b100}
_COLOR_OF = {0b001: 1, 0b010: 2, 0b100: 3}
_BITS = tuple(bin(m).count("1") for m in range(8))
# the most frontier colorings a sweep may hold after a placement, and the
# most member tuples read from a relation; a count stopped by it peaks at
# about 170 MiB (CPython 3.11)
_MAX_STATES = 1 << 18


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
    _, state = _frontier(adj, order, (), {(): 1}, set(), psi.assignments, add)
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


def _frontier(adj, order, live, state, stay, fixed: Mapping[int, int], join):
    """Place the vertices of ``order`` one by one; the final live
    frontier and state.

    ``state`` maps each coloring of ``live`` (a tuple over it) to a
    value.  Placing a vertex extends each key by every color the vertex
    may take (its fixed color, or any) that no live neighbour has, and
    ``join`` combines the values that reach the same key.  A vertex
    leaves the frontier once all its neighbours are placed, unless it is
    in ``stay``.  The vertices outside ``order`` count as placed, so
    those in ``live`` must hold every placed neighbour of ``order``.
    Raises TooLarge when a placement leaves more than ``_MAX_STATES``
    keys.
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
        if len(grown) > _MAX_STATES:
            raise TooLarge(f"the sweep holds more than {_MAX_STATES} frontier colorings")
        state = grown
    return live, state


# The six renamings of the colors, identity first, each as a
# bytes.translate table.
_RENAME = tuple(bytes((0,) + p) + bytes(range(4, 256)) for p in permutations(COLORS))


@dataclass(frozen=True)
class _Swept:
    """The ring relation of a graph, as one frontier sweep leaves it.

    ``starts`` lists the colorings of ring 1 (tuples over its sorted
    vertices) one renaming at a time: with k colorings that give the
    first two listed vertices of ring 1 the colors 1 and 2,
    ``starts[i * k + j]`` is the j-th of them renamed by ``_RENAME[i]``.
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

    Renaming the colors maps the relation onto itself, and exactly one of
    the six renamings colors a given edge 1, 2, so the sweep starts only
    from the ring-1 colorings that give the first two listed vertices of
    ring 1, a ring edge, the colors 1 and 2.  The relation is then the
    union of the six renamings of the final state, each key renamed by
    ``_RENAME[i]`` with its mask shifted to the starts renamed alike.
    Raises TooLarge when k * k exceeds ``_MAX_STATES`` for the k seeded
    colorings, or when the six renamings of the final state could hold
    more than ``_MAX_STATES`` keys.
    """
    adj = g.rotations
    ring1 = sorted(g.rings[0]) if g.rings else []
    pin = dict(zip(g.rings[0][:2], COLORS)) if g.rings else {}
    _, seeded = _frontier(adj, ring1, (), {(): 0}, set(ring1), pin, or_)
    k = len(seeded)
    # every key carries a k-bit mask, and the seeded masks alone hold
    # about k * k / 2 bits
    if k * k > _MAX_STATES:
        raise TooLarge(f"ring 1 has {k} colorings up to renaming, too many to sweep")
    starts = [tuple(bytes(s).translate(r)) for r in _RENAME for s in seeded]
    order = _sweep_order(adj, ring1 or [0])[len(ring1):]
    stay = set().union(*g.rings[1:])
    state = {s: 1 << j for j, s in enumerate(seeded)}
    live, state = _frontier(adj, order, ring1, state, stay, {}, or_)
    if len(state) * len(_RENAME) > _MAX_STATES:
        raise TooLarge(f"the ring relation could hold more than {_MAX_STATES} frontier colorings")
    # each renaming translates all the keys at once, then splits them
    # back into tuples as wide as the frontier
    relation = dict(state)
    keys = bytes(chain.from_iterable(state))
    for i, r in enumerate(_RENAME[1:], 1):
        split = zip(*[iter(keys.translate(r))] * len(live)) if live else [()] * len(state)
        for key, mask in zip(split, state.values()):
            relation[key] = relation.get(key, 0) | mask << i * k
    return _Swept(tuple(ring1), starts, tuple(live), relation)


def _members(sw: _Swept, order: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """The extending ring precolorings, as color tuples over ``order``
    (the ring vertices).

    Each member is read from a start followed by a frontier coloring
    through one index template.  Raises TooLarge, before building any,
    when there are more than ``_MAX_STATES`` members.
    """
    if sum(map(int.bit_count, sw.relation.values())) > _MAX_STATES:
        raise TooLarge(f"the extendable set holds more than {_MAX_STATES} precolorings")
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
    return _members(_sweep(g1), order) <= _extendable(g2)
