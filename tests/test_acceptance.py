"""Acceptance battery: one test per criterion, each printing a verdict line.

Every criterion runs its full stated property.  Exhaustive corpora grow
five- to six-fold per added vertex, so the default bounds are chosen to
finish in minutes; setting CYLCOLOR_FULL_ACCEPTANCE=1 raises them to the
full stated bounds (hours in CPython).  Each verdict line names the scope
it ran at.
"""

from __future__ import annotations

import os
import random
from itertools import product

import pytest

from cylcolor._canon import canonical_form
from cylcolor.analysis import (
    face_deficiency,
    framed_patched_catalog,
    is_critical,
    lemma_fr_audit,
    recognize,
    reproduce_witness,
    sixring_criterion,
)
from cylcolor.coloring import (
    Precoloring,
    count_colorings,
    dominates_under,
    extend,
)
from cylcolor.embedding import is_tame, relabel
from cylcolor.errors import DiagonalAdjacent, RingVertex
from cylcolor.families import (
    build_framed_patched,
    generate_hexagon_disks,
    generate_patches,
    generate_quad33,
    near_quad33,
    reduced_thomas_walls,
    thomas_walls,
)
from cylcolor.surgery import (
    audit_chain,
    chain_decompose,
    identify_across_face_mapped,
)

import fixtures
from oracles import max_chain_exhaustive

FULL = os.environ.get("CYLCOLOR_FULL_ACCEPTANCE") == "1"

DISK_BOUND = 10 if FULL else 6
QUAD_BOUND = 12 if FULL else 10
NEAR_BASE_BOUND = 9 if FULL else 8
FRAMED_PATCH_BOUND = 4 if FULL else 2
FRAMED_VERTEX_BOUND = 24
INVARIANCE_TRIALS = 1000
BROAD_TRIALS = 1000 if FULL else 3
SAMPLE_LIMIT = None if FULL else 25


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def quad_corpus():
    return generate_quad33(QUAD_BOUND)


@pytest.fixture(scope="module")
def framed_matrix():
    # The catalog keeps the first recipe of each canonical form from the
    # same enumeration, so rebuilding its recipes in key order yields the
    # deduplicated enumeration without enumerating a second time.
    catalog = framed_patched_catalog(FRAMED_VERTEX_BOUND, FRAMED_PATCH_BOUND)
    return [build_framed_patched(catalog[k]) for k in sorted(catalog)]


def proper_ring_sixtuples():
    out = []
    for combo in product((1, 2, 3), repeat=6):
        if all(combo[i] != combo[(i + 1) % 6] for i in range(6)):
            out.append(combo)
    return out


def test_criterion_1_sixring_oracle_equivalence():
    disks = generate_hexagon_disks(DISK_BOUND)
    patterns = proper_ring_sixtuples()
    assert len(patterns) == 66
    cases = disagreements = 0
    for g in disks:
        ring = g.rings[0]
        for combo in patterns:
            psi = Precoloring(dict(zip(ring, combo)))
            predicted_blocked = sixring_criterion(g, psi)
            actually_blocked = extend(g, psi) is None
            cases += 1
            if predicted_blocked != actually_blocked:
                disagreements += 1
    report(
        "criterion-1 (six-ring criterion vs solver)",
        disagreements == 0,
        f"{len(disks)} quadrangulated disks up to {DISK_BOUND} internal vertices, "
        f"{cases} precolorings, {disagreements} disagreements"
        + ("" if FULL else "; bound 10 via CYLCOLOR_FULL_ACCEPTANCE=1"),
    )


def test_criterion_2_criticality_ground_truths():
    ok = True
    notes = []
    rep = is_critical(fixtures.prism())
    ok &= rep.is_critical
    notes.append(f"prism critical={int(rep.is_critical)}")
    rep = is_critical(fixtures.subdivided_prism())
    witness_ok = (
        not rep.is_critical
        and rep.witness[0] == "vertex"
        and fixtures.subdivided_prism().degree(rep.witness[1]) == 2
    )
    ok &= witness_ok
    notes.append(f"subdivided prism witness ok={int(witness_ok)}")
    from cylcolor.coloring import _solve_first

    for n in (1, 2, 3, 4):
        g = thomas_walls(n)
        no_coloring = count_colorings(g, Precoloring.empty()) == 0
        every_deletion_colorable = True
        for u, v in g.edges():
            adj = [
                tuple(
                    x for x in row if not (w == u and x == v) and not (w == v and x == u)
                )
                for w, row in enumerate(g.rotations)
            ]
            if _solve_first(adj, {}) is None:
                every_deletion_colorable = False
        ok &= no_coloring and every_deletion_colorable
        notes.append(f"T_{n} 4-critical={int(no_coloring and every_deletion_colorable)}")
    report("criterion-2 (criticality ground truths)", ok, "; ".join(notes))


def test_criterion_3_identification_domination():
    failures = 0
    checked = 0
    skipped_ring_pairs = 0
    skipped_adjacent = 0
    for name, g in fixtures.cylinder_corpus():
        fl = g.faces
        quads = [
            f
            for i, f in enumerate(fl.faces)
            if len(f) == 4 and i not in fl.ring_faces
        ]
        for f in quads:
            for diag in ("13", "24"):
                try:
                    out, remap = identify_across_face_mapped(g, f, diag)
                except RingVertex:
                    skipped_ring_pairs += 1
                    continue
                except DiagonalAdjacent:
                    # adjacent corners admit no identification at all
                    skipped_adjacent += 1
                    continue
                ring_map = {v: remap[v] for v in g.ring_vertices}
                checked += 1
                if not dominates_under(out, g, ring_map):
                    failures += 1
    report(
        "criterion-3 (identification domination)",
        failures == 0,
        f"{checked} identifications across the cylinder corpus, "
        f"{failures} domination failures, skipped: {skipped_ring_pairs} "
        f"ring-pair diagonals, {skipped_adjacent} adjacent diagonals",
    )


def _invariance_check(graphs, trials, rng):
    for g in graphs:
        base = canonical_form(g)
        for _ in range(trials):
            perm = list(range(g.n))
            rng.shuffle(perm)
            if canonical_form(relabel(g, perm)) != base:
                return False
    return True


@pytest.mark.slow
def test_criterion_4_family_round_trips(quad_corpus, framed_matrix):
    rng = random.Random(20260810)
    ok = True
    notes = []

    tws = [thomas_walls(n) for n in range(1, 6)]
    structure = all(
        g.n == 3 * n + 1 and g.edge_count == 5 * n + 1
        for n, g in zip(range(1, 6), tws)
    )
    reductions = []
    for n in range(2, 6):
        g, pairs = reduced_thomas_walls(n)
        t = thomas_walls(n)
        missing = {frozenset(e) for e in t.edges()} - {frozenset(e) for e in g.edges()}
        reductions.append(missing == {frozenset(pairs.first), frozenset(pairs.second)})
    ok &= structure and all(reductions)
    notes.append(f"chain constructions n<=5 ok={int(structure and all(reductions))}")
    ok &= _invariance_check(tws, INVARIANCE_TRIALS, rng)
    ok &= _invariance_check([reduced_thomas_walls(n)[0] for n in range(1, 6)], INVARIANCE_TRIALS, rng)

    patches = generate_patches(4)
    patch_ok = len(patches) == 74
    for p in patches:
        ring = p.rings[0]
        fl = p.faces
        patch_ok &= all(
            len(f) == 4 for i, f in enumerate(fl.faces) if i not in fl.ring_faces
        )
        patch_ok &= not any(
            p.has_edge(ring[i], ring[j])
            for i in range(6)
            for j in range(i + 2, 6)
            if (i, j) != (0, 5)
        )
    ok &= patch_ok
    notes.append(f"74 patches validate={int(patch_ok)}")
    ok &= _invariance_check(patches, INVARIANCE_TRIALS, rng)
    notes.append(f"invariance x{INVARIANCE_TRIALS} on small families ok")

    near_variants = {}
    for base in generate_quad33(NEAR_BASE_BOUND):
        edge_choices = [[None] + [
            (r[i], r[(i + 1) % len(r)]) for i in range(len(r))
        ] for r in base.rings]
        for e1 in edge_choices[0]:
            for e2 in edge_choices[1]:
                g = near_quad33(base, (e1, e2))
                near_variants.setdefault(canonical_form(g), g)
    near_list = list(near_variants.values())

    def roundtrip(graphs):
        # a member may satisfy both constructions (they overlap at small
        # sizes); any positive verdict whose decomposition rebuilds the
        # instance counts as the generating verdict
        bad = 0
        for g in graphs:
            w = recognize(g, FRAMED_VERTEX_BOUND, FRAMED_PATCH_BOUND)
            if w.verdict == "neither":
                bad += 1
                continue
            rebuilt = reproduce_witness(w)
            if rebuilt is None or canonical_form(rebuilt) != canonical_form(g):
                bad += 1
        return bad

    bad_quads = roundtrip(quad_corpus)
    bad_near = roundtrip(near_list)
    ok &= bad_quads == 0 and bad_near == 0
    notes.append(
        f"{len(quad_corpus)} quadrangulations (<= {QUAD_BOUND}v) and "
        f"{len(near_list)} near variants round-trip, failures {bad_quads + bad_near}"
    )

    framed_patched_catalog(FRAMED_VERTEX_BOUND, FRAMED_PATCH_BOUND)
    bad_framed = roundtrip(framed_matrix)
    ok &= bad_framed == 0
    notes.append(
        f"{len(framed_matrix)} framed/patched members (<= {FRAMED_VERTEX_BOUND}v, "
        f"patches <= {FRAMED_PATCH_BOUND}) round-trip, failures {bad_framed}"
    )

    big = quad_corpus + near_list + framed_matrix
    ok &= _invariance_check(big, BROAD_TRIALS, rng)
    sample = big if SAMPLE_LIMIT is None else big[:: max(1, len(big) // SAMPLE_LIMIT)]
    ok &= _invariance_check(sample, INVARIANCE_TRIALS, rng)
    notes.append(
        f"canonical invariance x{BROAD_TRIALS} on all {len(big)} instances, "
        f"x{INVARIANCE_TRIALS} on {len(sample)} sampled"
    )
    report("criterion-4 (family round-trips)", ok, "; ".join(notes))


def test_criterion_5_critical_graphs_pass_structural_audit():
    failures = []
    certified = 0
    for name, g in fixtures.cylinder_corpus():
        if not is_critical(g).is_critical:
            continue
        certified += 1
        violations = lemma_fr_audit(g)
        if violations:
            failures.append((name, violations))
    report(
        "criterion-5 (structural audit of critical graphs)",
        not failures,
        f"{certified} certified-critical corpus graphs, violations: {failures}",
    )


def test_criterion_6_face_statistics(quad_corpus):
    ok = all(face_deficiency(q).deficiency_internal == 0 for q in quad_corpus)
    count = 0
    for base in generate_quad33(NEAR_BASE_BOUND):
        edge_choices = [[None] + [
            (r[i], r[(i + 1) % len(r)]) for i in range(len(r))
        ] for r in base.rings]
        for e1 in edge_choices[0]:
            for e2 in edge_choices[1]:
                g = near_quad33(base, (e1, e2))
                expected = sum(1 for e in (e1, e2) if e is not None)
                ok &= face_deficiency(g).deficiency_internal == expected
                count += 1
    report(
        "criterion-6 (face statistics)",
        ok,
        f"{len(quad_corpus)} quadrangulations at deficiency 0, "
        f"{count} near variants match their subdivision count",
    )


def test_criterion_7_chain_audit():
    failures = []
    audited = 0
    for name, g in fixtures.cylinder_corpus():
        if len(g.rings) != 2 or any(len(r) > 4 for r in g.rings):
            continue
        if set(g.rings[0]) & set(g.rings[1]):
            continue  # the chain conditions are unsatisfiable then
        if not is_tame(g):
            continue
        cd = chain_decompose(g)
        audited += 1
        violations = audit_chain(g, cd)
        if violations:
            failures.append((name, violations))
        if g.n <= 12 and cd.n != max_chain_exhaustive(g):
            failures.append((name, "not maximum"))
    report(
        "criterion-7 (chain decomposition audit)",
        not failures,
        f"{audited} tame corpus instances, failures: {failures}",
    )


def test_criterion_8_triangle_free_spheres_colorable():
    bad = [
        name
        for name, g in fixtures.sphere_corpus()
        if count_colorings(g, Precoloring.empty()) <= 0
    ]
    report(
        "criterion-8 (triangle-free sphere colorability)",
        not bad,
        f"{len(fixtures.sphere_corpus())} spherical fixtures, non-colorable: {bad}",
    )
