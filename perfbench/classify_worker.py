"""Recognize an EMG stream in a fresh interpreter, as a cold ``classify`` would.

Reads the stream on stdin, recognizes each graph with the benchmark's
catalog bounds (``workloads.CATALOG_BOUND``, ``workloads.PATCH_BOUND``) and
prints one JSON object: the verdict codes (N near quadrangulation, F framed
patched Thomas-Walls, X neither, U unknown) in input order, and with
``--trace 1`` the spans recorded here.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from spans import Tracer


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    text = sys.stdin.read()
    tracer = Tracer()
    if args.trace:
        workloads.install(tracer)
    verdicts = []
    try:
        with tracer.span("bench.classify_worker"):
            for g in workloads.embedding.parse_emg_stream(text):
                tracer.new_request()
                with tracer.span("bench.classify_graph"):
                    try:
                        w = workloads.analysis.recognize(
                            g, workloads.CATALOG_BOUND, workloads.PATCH_BOUND
                        )
                        verdicts.append(workloads.VERDICT_CODE[w.verdict])
                    except workloads.CatalogTooSmall:
                        verdicts.append("U")
    finally:
        tracer.restore()
    out = {"verdicts": "".join(verdicts)}
    if args.trace:
        out["trace"] = tracer.export()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
