"""Canonical encoding of embedded graphs with rings.

Two graphs get equal encodings exactly when they are related by a map
isomorphism carrying rings to rings, allowing relabeling, reflection of
the whole map, and swapping the two rings.  The encoding is the
lexicographically smallest rotation-system transcript over all start
darts and both orientations, with the ring descriptors appended.
"""

from __future__ import annotations

from .embedding import EmbeddedGraph, canon_cycle


def _transcript(g: EmbeddedGraph, u0: int, v0: int, flip: bool, best):
    """BFS relabeling transcript from a root dart; None if it exceeds best.

    While the transcript ties with best, only the entries appended for
    each vertex are compared, so a root costs linear time.
    """
    rotations = g.rotations
    labels = [-1] * len(rotations)
    labels[u0] = 0
    order = [u0]
    entry = {u0: v0}
    code: list[int] = []
    tied = best is not None  # code equals the prefix of best so far
    for v in order:
        rot = rotations[v][::-1] if flip else rotations[v]
        s = rot.index(entry[v])
        start = len(code)
        code.append(len(rot))
        for w in rot[s:] + rot[:s]:
            if labels[w] < 0:
                labels[w] = len(order)
                order.append(w)
                entry[w] = v
            code.append(labels[w])
        if tied:
            block, ref = code[start:], best[start : len(code)]
            if block != ref:
                if block > ref:
                    return None, None
                tied = False
    return code, labels


def canonical_form(g: EmbeddedGraph) -> bytes:
    """Ring-respecting canonical encoding of the embedded map.

    Reads only ``g.rotations`` and ``g.rings`` (with n = len(rotations)),
    so it also encodes a rotation table that was never validated, such as
    a generator's ``(rotations, rings)`` pair.  Every row of the table
    must hold ids in range(n).
    """
    n = len(g.rotations)
    hits = [0] * n
    for ring in g.rings:
        for v in ring:
            hits[v] += 1
    inv = [(len(g.rotations[v]), hits[v]) for v in range(n)]
    best_key = None
    roots: list[tuple[int, int]] = []
    for u in range(n):
        for v in g.rotations[u]:
            key = (inv[u], inv[v])
            if best_key is None or key < best_key:
                best_key, roots = key, [(u, v)]
            elif key == best_key:
                roots.append((u, v))

    best = None
    for u0, v0 in roots:
        for flip in (False, True):
            code, labels = _transcript(g, u0, v0, flip, best)
            if code is None:
                continue
            rings = sorted(canon_cycle([labels[v] for v in ring]) for ring in g.rings)
            for ring in rings:
                code.append(-1)
                code.extend(ring)
            if best is None or code < best:
                best = code
    assert best is not None
    return ",".join(map(str, best)).encode("ascii")
