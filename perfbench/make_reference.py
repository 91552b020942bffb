"""Regenerate the stored corpora and reference answers of the benchmark.

    python3 perfbench/make_reference.py

Writes ``data/quad33_le10.emg`` (every 3,3-quadrangulation of the
cylinder with at most 10 vertices, each record preceded by a
``# canon=<hash16>`` comment), ``data/census_report.txt``,
``data/classify_corpus.emg`` and ``reference.json``.  The committed files
were produced at the commit that introduced the benchmark; rerun this
only on purpose, because every later answer is checked against them.
Takes about two minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads as w
from workloads import analysis, coloring, embedding, families


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()[:16]


def classify_corpus() -> list:
    """Mostly non-NQ mix: chains, framings, framed patched members, grids.

    Every graph is small enough for the catalog to give a conclusive
    verdict, so none is UNKNOWN.
    """
    limit = min(w.CATALOG_BOUND, 12 + w.PATCH_BOUND)
    out = []
    for n in range(1, (limit - 1) // 3 + 1):
        g, pairs = families.reduced_thomas_walls(n)
        out.append(g)
        for ch1 in families.FRAME_CHOICES:
            for ch2 in families.FRAME_CHOICES:
                framed = families.frame(g, pairs, (ch1, ch2))
                if framed.n <= limit:
                    out.append(framed)
    members = families.enumerate_framed_patched(limit, 1)
    out += [g for i, (g, _) in enumerate(members) if i % 7 == 0]
    for c in range(3, 8):
        for k in range(2, limit // c + 1):
            out.append(families.cylinder_grid(c, k))
    return out


def main() -> int:
    ref: dict = {}

    quads = families.generate_quad33(10)
    hashes = [w.canon_hash(g) for g in quads]
    w.CENSUS_CORPUS.write_text(
        "".join(f"# canon={h}\n" + embedding.emit_emg(g) for h, g in zip(hashes, quads)),
        encoding="ascii",
    )
    report = analysis.census(quads, catalog_bound=w.CATALOG_BOUND, patch_bound=w.PATCH_BOUND)
    assert not report.has_flags
    lines = report.lines()
    parallel = analysis.census(
        quads, catalog_bound=w.CATALOG_BOUND, patch_bound=w.PATCH_BOUND, jobs=2
    )
    assert parallel.lines() == lines, "census differs between --jobs 1 and 2"
    w.CENSUS_REPORT.write_text("\n".join(lines) + "\n", encoding="ascii")
    ref["census"] = {"report_digest": digest(lines), **w.census_shares(lines)}

    ref["extendset"] = {}
    for n in range(2, 14):
        g = families.reduced_thomas_walls(n)[0]
        es = coloring.extendable_set(g)
        ref["extendset"][f"T'{n}"] = {
            "size": len(es.members),
            "digest": w.members_digest(es, list(range(g.n))),
        }
    ref["critical"] = {}
    for n in range(3, 8):
        g = families.reduced_thomas_walls(n)[0]
        ref["critical"][f"T'{n}"] = analysis.is_critical(g, guard=w.TUBE_GUARD).is_critical
    for n in range(1, 5):
        g, pairs = families.reduced_thomas_walls(n)
        framed = families.frame(g, pairs, ((True, True), (True, True)))
        ref["critical"][f"framed-T'{n}"] = analysis.is_critical(framed, guard=w.TUBE_GUARD).is_critical

    le9 = sorted(h for h, g in zip(hashes, quads) if g.n <= w.GEN_QUAD_BOUND)
    gen_quads = families.generate_quad33(w.GEN_QUAD_BOUND)
    assert sorted(w.canon_hash(g) for g in gen_quads) == le9, "quad33 corpus mismatch"
    hexes = families.generate_hexagon_disks(w.GEN_HEX_BOUND)
    ref["generate"] = {
        "quad33": {"bound": w.GEN_QUAD_BOUND, "classes": len(le9), "digest": digest(le9)},
        "hexagon_disks": {
            "bound": w.GEN_HEX_BOUND,
            "classes": len(hexes),
            "digest": digest(sorted(w.canon_hash(g) for g in hexes)),
        },
        "quad33_le10_classes": len(quads),
        "hexagon_disks_le6_classes": len(families.generate_hexagon_disks(6)),
    }

    corpus = classify_corpus()
    w.CLASSIFY_CORPUS.write_text(
        "".join(embedding.emit_emg(g) for g in corpus), encoding="ascii"
    )
    verdicts = "".join(
        w.VERDICT_CODE[analysis.recognize(g, w.CATALOG_BOUND, w.PATCH_BOUND).verdict]
        for g in corpus
    )
    ref["classify"] = {
        "graphs": len(corpus),
        "verdicts": verdicts,
        "tally": {"FPTW": verdicts.count("F"), "NEITHER": verdicts.count("X"), "NQ": verdicts.count("N")},
    }

    with open(w.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({k: ref[k] for k in ("census", "generate")}, sort_keys=True))
    print(json.dumps(ref["classify"]["tally"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
