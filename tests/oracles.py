"""Independent brute-force oracles used to validate the library.

The coloring oracle enumerates all 3^n assignments; the cycle oracle
goes through networkx.  Generator cross-checks enumerate abstract graphs
from the networkx atlas and try every rotation system.  The reference
solver is the library's former recursive kernel (same branching order,
so the same first solution), and the criticality references compare
whole extendable sets after every trial deletion.  The chain oracle
tries every subsequence of the short non-contractible cycles.  The
canonical-form, cycle-canon, hole-face, contractibility and quad33
references are the library's former versions: whole-prefix transcript
comparison, trying every rotation of a cycle, a scan of every face,
splitting the faces along the cycle, and gluing and building every cut
of every length, deduplicated here.  The framed catalog and hexagon-disk
references are former versions too: the catalog built in one shot at
the asked bound, and every filling of the hexagon canonicalized.  The
identification oracle merges two vertices with networkx, which knows
nothing of the embedding.  The relation-sweep reference is the
library's former sweep, which kept every frontier coloring apart from
its color renamings.
"""

from __future__ import annotations

from itertools import combinations, product

import networkx as nx

from cylcolor.embedding import EmbeddedGraph, compress_rotations, _cycles_up_to

COLORS = (1, 2, 3)


def reference_canon_cycle(seq) -> tuple[int, ...]:
    """Smallest tuple over every rotation of the sequence and of its reverse."""
    fwd = list(seq)
    best = None
    for s in (fwd, fwd[::-1]):
        for i in range(len(s)):
            cand = tuple(s[i:]) + tuple(s[:i])
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def to_nx(g: EmbeddedGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def brute_colorings(g: EmbeddedGraph, fixed: dict[int, int]) -> list[dict[int, int]]:
    """Every proper total 3-coloring extending the fixed assignment."""
    free = [v for v in range(g.n) if v not in fixed]
    edges = g.edges()
    out = []
    for combo in product(COLORS, repeat=len(free)):
        col = dict(fixed)
        col.update(zip(free, combo))
        if all(col[u] != col[v] for u, v in edges):
            out.append(col)
    return out


def brute_count(g: EmbeddedGraph, fixed: dict[int, int]) -> int:
    return len(brute_colorings(g, fixed))


def brute_extends(g: EmbeddedGraph, fixed: dict[int, int]) -> bool:
    free = [v for v in range(g.n) if v not in fixed]
    edges = g.edges()
    for combo in product(COLORS, repeat=len(free)):
        col = dict(fixed)
        col.update(zip(free, combo))
        if all(col[u] != col[v] for u, v in edges):
            return True
    return False


def brute_ring_members(g: EmbeddedGraph) -> frozenset[tuple[int, ...]]:
    """Extendable total ring precolorings over the sorted ring vertices."""
    domain = tuple(sorted(g.ring_vertices))
    ring_edges = set()
    for ring in g.rings:
        for a, b in zip(ring, ring[1:] + ring[:1]):
            ring_edges.add(frozenset((a, b)))
    members = set()
    for combo in product(COLORS, repeat=len(domain)):
        col = dict(zip(domain, combo))
        if any(col[a] == col[b] for e in ring_edges for a, b in [tuple(e)]):
            continue
        if brute_extends(g, col):
            members.add(combo)
    return frozenset(members)


def nx_cycles(g: EmbeddedGraph, max_len: int) -> set[tuple[int, ...]]:
    """All cycles up to max_len as canonical vertex tuples (via networkx)."""
    G = to_nx(g)
    out = set()
    for cyc in nx.simple_cycles(G, length_bound=max_len):
        best = None
        for s in (list(cyc), list(reversed(cyc))):
            for i in range(len(s)):
                cand = tuple(s[i:] + s[:i])
                if best is None or cand < best:
                    best = cand
        out.add(best)
    return out


def all_rotation_systems(G: nx.Graph):
    """Every rotation system of an abstract graph (one fixed order per orbit).

    The first neighbor of each vertex is pinned, which enumerates each
    cyclic order exactly once.
    """
    verts = sorted(G.nodes)
    nbrs = {v: sorted(G.neighbors(v)) for v in verts}

    def perms(rest):
        if not rest:
            yield ()
            return
        for i, x in enumerate(rest):
            for tail in perms(rest[:i] + rest[i + 1 :]):
                yield (x,) + tail

    pools = []
    for v in verts:
        head, rest = nbrs[v][0], nbrs[v][1:]
        pools.append([(head,) + tail for tail in perms(rest)])
    for combo in product(*pools):
        yield {v: rot for v, rot in zip(verts, combo)}


def atlas_quad33_count(max_vertices: int) -> int:
    """Independent count of cylinder quadrangulations with two disjoint
    triangle rings, enumerating atlas graphs times rotation systems.

    Only usable up to 7 vertices (the atlas limit).
    """
    from cylcolor._canon import canonical_form
    from cylcolor.errors import CylColorError

    assert max_vertices <= 7
    seen = set()
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n < 6 or n > max_vertices:
            continue
        if G.number_of_edges() != 2 * n - 3:
            continue
        if not nx.is_connected(G):
            continue
        triangles = [
            tuple(sorted(c)) for c in nx.simple_cycles(G, length_bound=3)
        ]
        pairs = [
            (a, b)
            for i, a in enumerate(triangles)
            for b in triangles[i + 1 :]
            if not (set(a) & set(b))
        ]
        if not pairs:
            continue
        for rots in all_rotation_systems(G):
            rotations = tuple(tuple(rots[v]) for v in range(n))
            try:
                g0 = EmbeddedGraph(rotations)
            except CylColorError:
                continue
            fl = g0.faces
            lens = sorted(len(f) for f in fl.faces)
            if lens.count(3) != 2 or any(x not in (3, 4) for x in lens):
                continue
            tri_faces = [f for f in fl.faces if len(f) == 3]
            if set(tri_faces[0]) & set(tri_faces[1]):
                continue
            try:
                g = EmbeddedGraph(rotations, rings=(tri_faces[0], tri_faces[1]))
            except CylColorError:
                continue
            seen.add(canonical_form(g))
    return len(seen)


# ---------------------------------------------------------------------------
# slow reference solver: recursive, re-propagating, copying
# ---------------------------------------------------------------------------

_MASK = {1: 0b001, 2: 0b010, 3: 0b100}
_COLOR_OF = {0b001: 1, 0b010: 2, 0b100: 3}
_BITS = {m: bin(m).count("1") for m in range(8)}


def _ref_propagate(adj, dom, queue) -> bool:
    """Remove forced colors from neighbors until fixpoint; False on wipeout."""
    while queue:
        v = queue.pop()
        mask = dom[v]
        for u in adj[v]:
            if dom[u] & mask:
                dom[u] &= ~mask
                if dom[u] == 0:
                    return False
                if _BITS[dom[u]] == 1:
                    queue.append(u)
    return True


def _ref_search(adj, dom, count_mode: bool, acc: list) -> int:
    """Exhaustive count, or first-solution search (acc receives domains).

    Each node copies the domains, re-propagates every singleton and
    rescans every vertex for the branching choice: fewest colors first,
    smallest id on ties, colors ascending.
    """
    singles = [v for v in range(len(adj)) if _BITS[dom[v]] == 1]
    work = list(dom)
    if not _ref_propagate(adj, work, singles):
        return 0
    branch = -1
    best = 4
    for v in range(len(adj)):
        b = _BITS[work[v]]
        if 1 < b < best:
            best = b
            branch = v
    if branch < 0:
        if not count_mode:
            acc.append(work)
        return 1
    total = 0
    for c in COLORS:
        m = _MASK[c]
        if work[branch] & m:
            child = list(work)
            child[branch] = m
            total += _ref_search(adj, child, count_mode, acc)
            if not count_mode and acc:
                return total
    return total


def _ref_domains(adj, fixed):
    dom = [0b111] * len(adj)
    for v, c in fixed.items():
        dom[v] = _MASK[c]
    return dom


def reference_first(adj, fixed) -> dict[int, int] | None:
    """First solution in the kernel's branching order (recursive reference)."""
    acc: list = []
    _ref_search(adj, _ref_domains(adj, fixed), False, acc)
    if not acc:
        return None
    return {v: _COLOR_OF[m] for v, m in enumerate(acc[0])}


def reference_count(adj, fixed) -> int:
    return _ref_search(adj, _ref_domains(adj, fixed), True, [])


def _ref_members(adj, g: EmbeddedGraph) -> frozenset:
    from cylcolor.coloring import ring_precolorings

    return frozenset(
        combo for combo, fixed in ring_precolorings(g)
        if reference_first(adj, fixed) is not None
    )


# ---------------------------------------------------------------------------
# the ring relation by the unreduced frontier sweep
# ---------------------------------------------------------------------------


def reference_sweep_members(g: EmbeddedGraph) -> tuple[frozenset, int]:
    """(members over the sorted ring vertices, widest state) of the
    library's former relation sweep, which keeps every frontier coloring
    apart from its color renamings.

    The vertices are placed in the library's order: ring 1 by id, kept
    live, then BFS layers from it, each by id, the other rings staying
    live to the end.  Each frontier coloring maps to the bitmask of the
    ring-1 colorings that reach it.
    """
    adj = g.rotations
    ring1 = sorted(g.rings[0])
    order, seen, layer = [], set(ring1), ring1
    while layer:
        order += sorted(layer)
        layer = {u for v in layer for u in adj[v]} - seen
        seen |= layer
    stay = set().union(*g.rings[1:])
    left = [len(adj[v]) for v in range(len(adj))]  # unplaced neighbours
    live: list[int] = []
    state: dict[tuple, int] = {(): 0}
    starts: list[tuple] = []
    widest = 0
    for step, v in enumerate(order):
        if step == len(ring1):  # ring 1 placed: tag each of its colorings
            starts = list(state)
            state = {s: 1 << i for i, s in enumerate(starts)}
        for u in adj[v]:
            left[u] -= 1
        keep = [
            i for i, u in enumerate(live) if left[u] or u in stay or step < len(ring1)
        ]
        stays = left[v] > 0 or v in stay or step < len(ring1)
        near = [i for i, u in enumerate(live) if u in adj[v]]
        grown: dict[tuple, int] = {}
        for key, mask in state.items():
            used = {key[i] for i in near}
            base = tuple(key[i] for i in keep)
            for c in COLORS:
                if c not in used:
                    k = base + (c,) if stays else base
                    grown[k] = grown.get(k, 0) | mask
        live = [live[i] for i in keep] + [v] * stays
        state = grown
        widest = max(widest, len(state))
    if len(order) == len(ring1):
        starts = list(state)
        state = {s: 1 << i for i, s in enumerate(starts)}
    at = {v: i for i, v in enumerate(live)}
    domain = sorted(g.ring_vertices)
    members = set()
    for key, mask in state.items():
        for i, s in enumerate(starts):
            if mask >> i & 1:
                col = dict(zip(ring1, s))
                col.update((v, key[at[v]]) for v in live)
                members.add(tuple(col[v] for v in domain))
    return frozenset(members), widest


# ---------------------------------------------------------------------------
# criticality by set equality: recompute the whole extendable set per deletion
# ---------------------------------------------------------------------------


def reference_is_critical(g: EmbeddedGraph):
    """CriticalityReport from comparing full extendable sets per deletion."""
    from cylcolor.analysis import CriticalityReport

    ring_vs = g.ring_vertices
    ring_edges = g.ring_edge_set()
    extra_vertex = [v for v in range(g.n) if v not in ring_vs]
    extra_edges = sorted(
        (u, v) for u, v in g.edges() if frozenset((u, v)) not in ring_edges
    )
    if not extra_vertex and not extra_edges:
        return CriticalityReport(False, ("equals-rings", None))
    base = _ref_members(g.rotations, g)
    for v in extra_vertex:
        adj = [
            tuple(u for u in row if u != v) if w != v else ()
            for w, row in enumerate(g.rotations)
        ]
        if _ref_members(adj, g) == base:
            return CriticalityReport(False, ("vertex", v))
    for u, v in extra_edges:
        adj = [
            tuple(x for x in row if not (w == u and x == v) and not (w == v and x == u))
            for w, row in enumerate(g.rotations)
        ]
        if _ref_members(adj, g) == base:
            return CriticalityReport(False, ("edge", (u, v)))
    return CriticalityReport(True, None)


def reference_maximal_critical(g: EmbeddedGraph):
    """(subgraph, vertex map) by deleting while the full set is unchanged.

    Same deletion order as the library: edges first, by larger endpoint
    and then by position in that endpoint's rotation (``sorted`` keeps
    that generation order, since frozensets compare by inclusion), then
    vertices by id; repeated to a fixpoint.
    """
    from cylcolor.coloring import ring_precolorings
    from cylcolor.errors import NothingToExtract

    target = _ref_members(g.rotations, g)
    if len(target) == sum(1 for _ in ring_precolorings(g)):
        raise NothingToExtract("every ring precoloring extends")
    rot = {v: list(g.rotations[v]) for v in range(g.n)}
    ring_vs = g.ring_vertices
    ring_edges = g.ring_edge_set()

    def connected_without(skip_edge=None, skip_vertex=None):
        G = nx.Graph((u, v) for u, row in rot.items() for v in row)
        G.add_nodes_from(rot)
        if skip_edge is not None:
            G.remove_edge(*skip_edge)
        if skip_vertex is not None:
            G.remove_node(skip_vertex)
        return nx.is_connected(G)

    def members_without(skip_edge=None, skip_vertex=None):
        adj = [()] * (max(rot) + 1)
        for v, row in rot.items():
            if v != skip_vertex:
                adj[v] = tuple(
                    u for u in row
                    if u != skip_vertex and frozenset((u, v)) != skip_edge
                )
        return _ref_members(adj, g)

    changed = True
    while changed:
        changed = False
        edges = sorted(
            frozenset((u, v))
            for v, row in rot.items()
            for u in row
            if u < v and frozenset((u, v)) not in ring_edges
        )
        for e in edges:
            if connected_without(skip_edge=e) and members_without(skip_edge=e) == target:
                u, v = sorted(e)
                rot[u].remove(v)
                rot[v].remove(u)
                changed = True
                break
        if changed:
            continue
        for v in sorted(rot):
            if v in ring_vs or not connected_without(skip_vertex=v):
                continue
            if members_without(skip_vertex=v) == target:
                for u in rot[v]:
                    rot[u].remove(v)
                del rot[v]
                changed = True
                break
    return compress_rotations(rot, g.rings)


# ---------------------------------------------------------------------------
# maximum chain length by trying every subsequence of cutting cycles
# ---------------------------------------------------------------------------


def max_chain_exhaustive(g: EmbeddedGraph) -> int:
    """Brute-force maximum chain length by trying all cycle subsequences."""
    from cylcolor.surgery import _chain_candidates

    refs, sides = _chain_candidates(g)
    ring1, ring2 = g.rings
    byc = {reference_canon_cycle(r.vertices): r.vertices for r in refs}
    c0 = byc[reference_canon_cycle(ring1)]
    cn = byc[reference_canon_cycle(ring2)]
    if c0 == cn:
        return 1
    triangles = {reference_canon_cycle(c) for c in _cycles_up_to(g, 3)}
    middle = [r.vertices for r in refs if r.vertices not in (c0, cn)]
    best = 0
    for r in range(len(middle) + 1):
        for sub in combinations(middle, r):
            seq = [c0] + sorted(sub, key=lambda c: len(sides[c])) + [cn]
            if {reference_canon_cycle(c) for c in seq} >= triangles and _valid_chain_seq(seq, sides):
                best = max(best, len(seq) - 1)
    return best


def _valid_chain_seq(seq, sides) -> bool:
    for i in range(len(seq) - 1):
        if not sides[seq[i]] < sides[seq[i + 1]]:
            return False
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if set(seq[i]) & set(seq[j]):
                endpair = (i, j) in ((0, 1), (len(seq) - 2, len(seq) - 1))
                type_ok = (
                    len(seq[i]) == 4 and len(seq[j]) == 3 and i in (0, len(seq) - 1)
                ) or (len(seq[j]) == 4 and len(seq[i]) == 3 and j in (0, len(seq) - 1))
                if not (endpair and type_ok):
                    return False
    return True


# ---------------------------------------------------------------------------
# canonical form comparing whole transcript prefixes after every vertex
# ---------------------------------------------------------------------------


def _ref_transcript(g: EmbeddedGraph, u0: int, v0: int, flip: bool, best):
    rotations = g.rotations
    labels = [-1] * g.n
    order = [u0]
    entry = [-1] * g.n
    entry[u0] = v0
    labels[u0] = 0
    code: list[int] = []
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        rot = rotations[v]
        if flip:
            rot = tuple(reversed(rot))
        s = rot.index(entry[v])
        code.append(len(rot))
        for k in range(len(rot)):
            w = rot[(s + k) % len(rot)]
            if labels[w] < 0:
                labels[w] = len(order)
                order.append(w)
                entry[w] = v
            code.append(labels[w])
        if best is not None:
            m = len(code)
            if code[:m] > best[:m]:
                return None, None
    return code, labels


def reference_canonical_form(g: EmbeddedGraph) -> bytes:
    """The library's canonical encoding, with O(n) prefix copies per vertex."""
    hits = [0] * g.n
    for ring in g.rings:
        for v in ring:
            hits[v] += 1
    inv = [(len(g.rotations[v]), hits[v]) for v in range(g.n)]
    best_key = None
    roots: list[tuple[int, int]] = []
    for u in range(g.n):
        for v in g.rotations[u]:
            key = (inv[u], inv[v])
            if best_key is None or key < best_key:
                best_key, roots = key, [(u, v)]
            elif key == best_key:
                roots.append((u, v))
    best = None
    for u0, v0 in roots:
        for flip in (False, True):
            code, labels = _ref_transcript(g, u0, v0, flip, best)
            if code is None:
                continue
            rings = sorted(reference_canon_cycle([labels[v] for v in ring]) for ring in g.rings)
            for ring in rings:
                code.append(-1)
                code.extend(ring)
            if best is None or code < best:
                best = code
    return ",".join(map(str, best)).encode("ascii")


# ---------------------------------------------------------------------------
# hole faces by scanning every face of the map
# ---------------------------------------------------------------------------


def reference_ring_faces(g: EmbeddedGraph) -> tuple[int, ...]:
    """Hole face indices: every face equal to the ring, first distinct pair."""
    faces = g.faces.faces
    candidates = [
        [i for i, f in enumerate(faces) if reference_canon_cycle(f) == reference_canon_cycle(ring)]
        for ring in g.rings
    ]
    if len(candidates) <= 1:
        return tuple(c[0] for c in candidates)
    return next((i, j) for i in candidates[0] for j in candidates[1] if i != j)


# ---------------------------------------------------------------------------
# identification through networkx
# ---------------------------------------------------------------------------


def reference_identified_edges(g: EmbeddedGraph, keep: int, drop: int) -> set[frozenset[int]]:
    """The edges of g with ``drop`` merged into ``keep``, parallel edges
    made one and no loop kept."""
    merged = nx.contracted_nodes(to_nx(g), keep, drop, self_loops=False)
    return {frozenset(e) for e in merged.edges()}


# ---------------------------------------------------------------------------
# contractibility by splitting the faces along the cycle
# ---------------------------------------------------------------------------


def reference_is_contractible(g: EmbeddedGraph, cycle) -> bool:
    """True iff one of the two face regions cut off by the cycle holds no hole."""
    from cylcolor.embedding import _face_sides

    side_a, side_b = _face_sides(g, tuple(cycle))
    holes = set(g.faces.ring_faces)
    return not (holes & side_a) or not (holes & side_b)


# ---------------------------------------------------------------------------
# tameness through the general cycle search
# ---------------------------------------------------------------------------


def reference_is_tame(g: EmbeddedGraph) -> bool:
    """The library's former verdict: triangles from the cycle search, each
    tested by splitting the faces along it."""
    triangles = _cycles_up_to(g, 3)
    if any(reference_is_contractible(g, t) for t in triangles):
        return False
    for i, t1 in enumerate(triangles):
        for t2 in triangles[i + 1 :]:
            if set(t1) & set(t2):
                return False
    return True


# ---------------------------------------------------------------------------
# 3,3-quadrangulations gluing every cut, shortest or not
# ---------------------------------------------------------------------------


def _ref_quad33_remap(faces, n_total: int, L: int):
    """Dense ids after gluing the cut of length L, or None for a loop."""
    B = 6 + 2 * L
    edges = {frozenset((f[i], f[(i + 1) % len(f)])) for f in faces for i in range(len(f))}
    nu = list(range(n_total))
    removed = set()
    for j in range(L + 1):
        p, q = 3 + j, (6 + 2 * L - j) % B
        if frozenset((p, q)) in edges:
            return None
        keep, drop = (q, p) if q == 0 else (p, q)
        nu[drop] = keep
        removed.add(drop)
    survivors = [v for v in range(n_total) if v not in removed]
    dense = {old: new for new, old in enumerate(survivors)}
    return [dense[nu[v]] for v in range(n_total)]


def reference_cut_is_shortest(faces, n_total: int, L: int) -> bool:
    """The gluing of this filling has no loop, no parallel edge and ring
    distance exactly L.

    Every glued edge is walked by the faces at most once each way, so a
    glued dart that repeats is a parallel edge.
    """
    remap = _ref_quad33_remap(faces, n_total, L)
    if remap is None:
        return False
    darts = [(remap[f[i - 1]], remap[f[i]]) for f in faces for i in range(len(f))]
    if len(set(darts)) != len(darts):
        return False
    G = nx.Graph()
    G.add_edges_from(darts)
    dist = nx.multi_source_dijkstra_path_length(G, {remap[v] for v in (0, 1, 2)})
    return min(dist[remap[v]] for v in (3 + L, 4 + L, 5 + L)) == L


def _ref_glue_quad33(faces, n_total: int, L: int):
    from cylcolor.embedding import rotation_system_from_faces
    from cylcolor.errors import CylColorError

    remap = _ref_quad33_remap(faces, n_total, L)
    if remap is None:
        return None
    glued = [tuple(remap[v] for v in f) for f in faces]
    holes = [tuple(remap[v] for v in (0, 2, 1)), tuple(remap[v] for v in (3 + L, 5 + L, 4 + L))]
    rings = (tuple(remap[v] for v in (0, 1, 2)), tuple(remap[v] for v in (3 + L, 4 + L, 5 + L)))
    try:
        rot = rotation_system_from_faces(glued + holes, len(set(remap)))
        return EmbeddedGraph(rot, rings=rings)
    except CylColorError:
        return None


def reference_quad33(max_vertices: int) -> list[EmbeddedGraph]:
    """generate_quad33 building the gluing of every cut, keeping the first
    map of each class and sorting by canonical form."""
    from cylcolor._canon import canonical_form
    from cylcolor.families import _fill_disk

    seen: dict[bytes, EmbeddedGraph] = {}
    for L in range(1, max_vertices - 4):
        for faces, n_total in _fill_disk(6 + 2 * L, max_vertices - 5 - L):
            g = _ref_glue_quad33(faces, n_total, L)
            if g is not None and g.n <= max_vertices:
                seen.setdefault(canonical_form(g), g)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# framed catalog, hexagon disks and near quad33, built whole
# ---------------------------------------------------------------------------


def reference_framed_catalog(catalog_bound: int, patch_bound: int) -> dict:
    """The catalog of framed patched chain graphs, built once at the bound:
    the first recipe of each canonical form in enumeration order."""
    from cylcolor._canon import canonical_form
    from cylcolor.families import enumerate_framed_patched

    catalog: dict = {}
    for graph, recipe in enumerate_framed_patched(catalog_bound, patch_bound):
        catalog.setdefault(canonical_form(graph), recipe)
    return catalog


def reference_hexagon_disks(max_internal: int) -> list[EmbeddedGraph]:
    """generate_hexagon_disks canonicalizing every filling, with no
    boundary-orbit filter."""
    from cylcolor.families import _disk_table, _fill_disk, _isomorph_free

    return _isomorph_free(
        _disk_table(faces, n_total, 6) for faces, n_total in _fill_disk(6, max_internal)
    )


def reference_near_quad33(max_base_vertices: int) -> list[EmbeddedGraph]:
    """Every subdivision variant of every quad33 base on at most
    max_base_vertices, isomorph-free: the variants reach two vertices past
    the bound."""
    from cylcolor.families import (
        _isomorph_free,
        generate_quad33,
        near_quad33,
        subdivision_choices,
    )

    return _isomorph_free(
        near_quad33(base, subs)
        for base in generate_quad33(max_base_vertices)
        for subs in subdivision_choices(base)
    )
