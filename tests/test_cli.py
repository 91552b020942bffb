"""Command line surface over the EMG format."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylcolor.cli import _FAMILIES, main
from cylcolor.embedding import emit_emg, parse_emg, parse_emg_stream
from cylcolor.families import cylinder_grid, near_quad33

import fixtures


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_thomas_walls(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "thomas-walls", "--n", "2"])
    assert code == 0
    g = parse_emg(out)
    assert g.n == 7 and g.edge_count == 11


def test_gen_stream_parses(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "quad33", "--max-vertices", "7"])
    assert code == 0
    graphs = parse_emg_stream(out)
    assert len(graphs) == 10


def test_gen_out_dir(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["gen", "--family", "patches", "--max-internal", "2", "--out-dir", str(tmp_path)],
    )
    assert code == 0
    files = sorted(tmp_path.glob("*.emg"))
    assert len(files) == 4
    for f in files:
        parse_emg(f.read_text())


def test_color_unsat(capsys, monkeypatch):
    code, out, _ = run(capsys, ["color"], stdin=emit_emg(fixtures.k4()), monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "UNSAT"


def test_color_with_precoloring(capsys, monkeypatch):
    g = fixtures.prism()
    code, out, _ = run(
        capsys,
        ["color", "--precolor", "0=1,1=2"],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = dict(
        (int(parts[1]), int(parts[2]))
        for parts in (line.split() for line in out.strip().splitlines())
    )
    assert lines[0] == 1 and lines[1] == 2
    for u, v in g.edges():
        assert lines[u] != lines[v]


def test_count(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count"], stdin=emit_emg(fixtures.c4_disk()), monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "18"


def test_extendset(capsys, monkeypatch):
    code, out, _ = run(capsys, ["extendset"], stdin=emit_emg(fixtures.prism()), monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "domain 0 1 2 3 4 5"
    assert sum(1 for l in lines if l.startswith("member ")) == 12


def test_critical(capsys, monkeypatch):
    code, out, _ = run(capsys, ["critical"], stdin=emit_emg(fixtures.prism()), monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "critical=1"
    code, out, _ = run(
        capsys, ["critical"], stdin=emit_emg(fixtures.subdivided_prism()), monkeypatch=monkeypatch
    )
    assert code == 0 and out.startswith("critical=0 witness=vertex:6")


def test_dominates(tmp_path, capsys, monkeypatch):
    g = fixtures.prism()
    other = tmp_path / "other.emg"
    other.write_text(emit_emg(g))
    code, out, _ = run(
        capsys,
        ["dominates", "--other", str(other)],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "dominates=1"


def test_classify(capsys, monkeypatch):
    from cylcolor.families import near_quad33

    g = near_quad33(fixtures.prism(), ((0, 1), None))
    code, out, _ = run(
        capsys,
        ["classify", "--catalog-bound", "10", "--patch-bound", "1"],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "verdict=NQ"


def test_faces(capsys, monkeypatch):
    code, out, _ = run(capsys, ["faces"], stdin=emit_emg(fixtures.prism()), monkeypatch=monkeypatch)
    assert code == 0
    assert "def_int=0" in out and "def_all=-2" in out
    assert sum(1 for l in out.splitlines() if l.endswith(" hole")) == 2


def test_chain(capsys, monkeypatch):
    from cylcolor.families import cylinder_grid

    code, out, _ = run(capsys, ["chain"], stdin=emit_emg(cylinder_grid(4, 4)), monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines()[0] == "chain n=3"


def test_chain_when_rings_meet(capsys, monkeypatch):
    # no chain exists, as census's chain=0 says: a legal answer, not an error
    for n in ("1", "2"):
        code, text, _ = run(capsys, ["gen", "--family", "reduced", "--n", n])
        code, out, err = run(capsys, ["chain"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (0, "chain n=0\n", ""), n
        code, out, _ = run(capsys, ["census", "--family", "stdin"], stdin=text, monkeypatch=monkeypatch)
        assert out.endswith(" chain=0\n"), n


def test_identify_pipe(capsys, monkeypatch):
    from cylcolor.families import cylinder_grid

    g = cylinder_grid(4, 3)
    fl = g.faces
    quad = next(
        f for i, f in enumerate(fl.faces) if len(f) == 4 and i not in fl.ring_faces
    )
    code, out, _ = run(
        capsys,
        ["identify", "--face", ",".join(map(str, quad)), "--diagonal", "13"],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert parse_emg(out).n == g.n - 1


def test_contract_ladder(capsys, monkeypatch):
    from cylcolor.families import cylinder_grid

    g = cylinder_grid(5, 6)
    code, out, _ = run(
        capsys,
        ["contract-ladder", "--q2", "10,11,12,13,14", "--q3", "15,16,17,18,19"],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert parse_emg(out).n == g.n - 2


@pytest.mark.parametrize("q2, q3", [("0,1,2,99", "4,5,6,7"), ("-12,5,6,7", "8,9,10,11")])
def test_contract_ladder_rejects_vertices_outside_the_graph(capsys, monkeypatch, q2, q3):
    from cylcolor.families import cylinder_grid

    code, out, err = run(
        capsys,
        ["contract-ladder", f"--q2={q2}", f"--q3={q3}"],
        stdin=emit_emg(cylinder_grid(4, 4)),
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert "outside" in err and "Traceback" not in err


def test_attach_ring(capsys, monkeypatch):
    g = fixtures.hub_hexagon()
    code, out, _ = run(
        capsys, ["attach-ring", "--vertex", "6"], stdin=emit_emg(g), monkeypatch=monkeypatch
    )
    assert code == 0
    out_g = parse_emg(out)
    assert len(out_g.rings) == 2 and out_g.n == g.n + 3


def test_cut_reports_precondition(capsys, monkeypatch):
    code, out, err = run(
        capsys,
        ["cut", "--d0", "3"],
        stdin=emit_emg(fixtures.penta_tube(2)),
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "no identification or ladder step" in err


def test_gen_classify_roundtrip(capsys, monkeypatch):
    # generate | classify smoke matrix: every emitted member is recognized
    code, out, _ = run(
        capsys, ["gen", "--family", "framed-tw", "--max-vertices", "11", "--max-internal", "1"]
    )
    assert code == 0
    for g in parse_emg_stream(out):
        code, verdict, _ = run(
            capsys,
            ["classify", "--catalog-bound", "11", "--patch-bound", "1"],
            stdin=emit_emg(g),
            monkeypatch=monkeypatch,
        )
        assert code == 0 and verdict.strip() in ("verdict=FPTW", "verdict=NQ")
    code, out, _ = run(capsys, ["gen", "--family", "near-quad33", "--max-vertices", "6"])
    assert code == 0
    for g in parse_emg_stream(out):
        code, verdict, _ = run(
            capsys,
            ["classify", "--catalog-bound", "10", "--patch-bound", "1"],
            stdin=emit_emg(g),
            monkeypatch=monkeypatch,
        )
        assert code == 0 and verdict.strip() == "verdict=NQ"


def test_census_quad33(capsys):
    code, out, _ = run(
        capsys,
        [
            "census",
            "--family",
            "quad33",
            "--max-vertices",
            "7",
            "--catalog-bound",
            "10",
            "--patch-bound",
            "1",
        ],
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("canon=")]
    assert len(lines) == 10
    assert all("verdict=NQ" in l for l in lines)


def test_malformed_input_exit_code(capsys, monkeypatch):
    code, out, err = run(capsys, ["count"], stdin="not emg\n", monkeypatch=monkeypatch)
    assert code == 2


def test_guard_exit_code(capsys, monkeypatch):
    from cylcolor.families import cylinder_grid

    g = cylinder_grid(4, 7)
    code, out, err = run(
        capsys, ["critical", "--guard", "20"], stdin=emit_emg(g), monkeypatch=monkeypatch
    )
    assert code == 3
    assert err.startswith("error: 28 vertices exceeds guard 20")


def test_guard_only_on_verbs_that_read_it(capsys):
    from cylcolor.cli import _build_parser

    required = {
        "dominates": ["--other", "h.emg"],
        "identify": ["--face", "0,1,2,3"],
        "contract-ladder": ["--q2", "0,1,2,3", "--q3", "4,5,6,7"],
        "attach-ring": ["--vertex", "0"],
    }
    for verb in (
        "count", "extendset", "dominates",
        "classify", "faces", "chain", "identify", "contract-ladder", "attach-ring",
    ):
        with pytest.raises(SystemExit) as err:
            main([verb, *required.get(verb, []), "--guard", "30"])
        assert err.value.code == 2
        assert "unrecognized arguments: --guard 30" in capsys.readouterr().err
    parser = _build_parser()
    for argv in (
        ["color"], ["critical"], ["cut", "--d0", "3"], ["census", "--family", "quad33"],
    ):
        assert parser.parse_args([*argv, "--guard", "30"]).guard == 30


def test_sweep_verbs_answer_past_the_old_guard(capsys, monkeypatch):
    from cylcolor.coloring import Precoloring, count_colorings, extendable_set
    from cylcolor.families import reduced_thomas_walls

    tube = fixtures.penta_tube(9)
    code, out, err = run(capsys, ["count"], stdin=emit_emg(tube), monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert out == f"{count_colorings(tube, Precoloring({}))}\n"
    chain, _ = reduced_thomas_walls(100)
    code, out, err = run(capsys, ["extendset"], stdin=emit_emg(chain), monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    es = extendable_set(chain)
    lines = out.splitlines()
    assert lines[0] == "domain " + " ".join(map(str, es.ring_domain))
    assert lines[1:] == ["member " + " ".join(map(str, m)) for m in sorted(es.members)]


# Runs the command after it on stdin and prints its exit code, stderr, wall
# seconds and peak RSS in KiB.  A fresh interpreter, so that RUSAGE_CHILDREN
# sees that command alone.
_MEASURED = """
import json, resource, subprocess, sys, time
t = time.perf_counter()
done = subprocess.run(sys.argv[1:], stdin=sys.stdin, capture_output=True, text=True, timeout=30)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([done.returncode, done.stderr, time.perf_counter() - t, peak]))
"""


# inputs past the sweep's bound: on its frontier colorings (K_{2,20} from a
# hub, the 40x40 grid), on its ring-1 colorings (a 16-ring) and on the
# extendable set it expands to (two 11-rings)
_TOO_WIDE = {
    "K2,20": lambda: fixtures.k2n_sphere(20),
    "grid40x40": lambda: cylinder_grid(40, 40),
    "grid16x3": lambda: cylinder_grid(16, 3),
    "grid11x3": lambda: cylinder_grid(11, 3),
}


@pytest.mark.parametrize(
    "verb,name",
    [("count", "K2,20"), ("count", "grid40x40"), ("extendset", "grid16x3"), ("extendset", "grid11x3")],
)
def test_sweep_state_bound_exits_3_small_and_fast(verb, name):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", _MEASURED, sys.executable, "-m", "cylcolor.cli", verb],
        input=emit_emg(_TOO_WIDE[name]()), capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    code, err, seconds, peak_kib = json.loads(done.stdout)
    assert code == 3, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert seconds < 5, seconds
    assert peak_kib < 256 * 1024, peak_kib


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["color", "--bogus"])
    assert err.value.code == 2


def test_malformed_precolor_exit_code(capsys):
    for bad in ("0=x", "x=1", "0", "0=1,,2=y"):
        with pytest.raises(SystemExit) as err:
            main(["color", "--precolor", bad])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --precolor: malformed entry" in captured.err
        assert "Traceback" not in captured.err


def test_malformed_face_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["identify", "--face", "4,5,x,8"])
    assert err.value.code == 2
    assert "error: argument --face: malformed vertex list" in capsys.readouterr().err


def test_classify_past_catalog_bound_is_unknown(capsys, monkeypatch):
    from cylcolor.families import reduced_thomas_walls

    g, _ = reduced_thomas_walls(3)
    code, out, err = run(
        capsys,
        ["classify", "--catalog-bound", "6", "--patch-bound", "0"],
        stdin=emit_emg(g),
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert out.strip() == "verdict=UNKNOWN"
    assert "catalog bound 6" in err


def test_negative_catalog_or_patch_bound_is_usage_error(capsys, monkeypatch):
    grid = emit_emg(cylinder_grid(4, 3))
    for argv, bad in (
        (["classify", "--catalog-bound", "8", "--patch-bound", "-1"], "--patch-bound"),
        (["classify", "--catalog-bound", "-5"], "--catalog-bound"),
        (["census", "--family", "quad33", "--patch-bound", "-1"], "--patch-bound"),
        (["census", "--family", "stdin", "--catalog-bound", "-1"], "--catalog-bound"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(grid))
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert f"error: argument {bad}: bound -" in capsys.readouterr().err, argv


def _bad_ring_text() -> str:
    # a 7-vertex map whose first ring names vertex 7
    lines = emit_emg(near_quad33(fixtures.prism(), ((0, 1), None))).splitlines()
    lines[3] = "ring 4 7 4 6 3"
    return "\n".join(lines) + "\n"


def test_ring_vertex_out_of_range_exit_code(tmp_path, capsys, monkeypatch):
    other = tmp_path / "prism.emg"
    other.write_text(emit_emg(fixtures.prism()))
    verbs = [
        ["faces"], ["color"], ["count"], ["extendset"], ["critical"], ["chain"],
        ["classify", "--catalog-bound", "10", "--patch-bound", "0"],
        ["dominates", "--other", str(other)],
        ["identify", "--face", "0,1,2,3"],
        ["contract-ladder", "--q2", "0,1,2,3", "--q3", "4,5,6,7"],
        ["cut", "--d0", "3"],
        ["attach-ring", "--vertex", "0"],
        ["census", "--family", "stdin"],
    ]
    for argv in verbs:
        code, out, err = run(capsys, argv, stdin=_bad_ring_text(), monkeypatch=monkeypatch)
        assert code == 2, argv
        assert "error: ring (7, 4, 6, 3) has a vertex out of range" in err, argv
        assert "Traceback" not in err


def test_missing_input_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.emg"
    code, out, err = run(capsys, ["faces", "--in", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_missing_other_file_exit_code(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.emg"
    code, out, err = run(
        capsys,
        ["dominates", "--other", str(missing)],
        stdin=emit_emg(fixtures.prism()),
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_output_into_missing_directory_exit_code(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.emg"
    code, out, err = run(
        capsys, ["gen", "--family", "thomas-walls", "--n", "2", "--out", str(target)]
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "no-such-dir" in err
    assert not target.parent.exists()


def test_out_dir_blocked_by_a_file_exit_code(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code, out, err = run(
        capsys, ["gen", "--family", "patches", "--max-internal", "1", "--out-dir", str(blocker)]
    )
    assert code == 2 and err.startswith("error: ") and str(blocker) in err


def test_non_ascii_input_file_exit_code(tmp_path, capsys):
    path = tmp_path / "g.emg"
    text = emit_emg(fixtures.prism())
    path.write_bytes(text.replace("rings 2", "# caf\u00e9\nrings 2").encode("utf-8"))
    code, out, err = run(capsys, ["faces", "--in", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not ASCII" in err
    assert "Traceback" not in err


def test_census_jobs_below_one_is_usage_error(capsys):
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as err:
            main(["census", "--family", "quad33", "--jobs", bad])
        assert err.value.code == 2
        assert "error: argument --jobs" in capsys.readouterr().err


def test_negative_guard_is_usage_error(capsys):
    for argv in (["color"], ["critical"], ["cut", "--d0", "3"], ["census", "--family", "quad33"]):
        for bad in ("-1", "many"):
            with pytest.raises(SystemExit) as err:
                main([*argv, "--guard", bad])
            assert err.value.code == 2, argv
            assert "error: argument --guard" in capsys.readouterr().err, argv


# -- exit-code contract under mutated input ---------------------------------------

_FUZZ_SEEDS = [
    emit_emg(fixtures.prism()),
    emit_emg(near_quad33(fixtures.prism(), ((0, 1), None))),
    emit_emg(fixtures.c4_disk()),
]
_FUZZ_VERBS = [
    ["faces"], ["count"], ["extendset"], ["critical"], ["chain"], ["color"],
    ["classify"],
]
_EDIT = st.tuples(
    st.sampled_from("rdi"),  # replace, delete, insert
    st.integers(0, 10**6),
    st.sampled_from("0123456789 \n-:#emgrotinvs"),
)


def _mutate(text: str, edits) -> str:
    for kind, at, ch in edits:
        i = at % (len(text) + 1)
        if kind == "r":
            text = text[:i] + ch + text[i + 1 :]
        elif kind == "d":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i:]
    return text


@given(
    st.sampled_from(_FUZZ_SEEDS),
    st.lists(_EDIT, min_size=1, max_size=4),
    st.sampled_from(_FUZZ_VERBS),
)
@settings(max_examples=300, deadline=None)
def test_exit_code_contract_on_mutated_input(text, edits, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(_mutate(text, edits))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# -- exit-code contract under fuzzed arguments ------------------------------------

_NUM = st.integers(-3, 9)
_GUARD = st.integers(-3, 30)
_VERTICES = st.lists(_NUM, max_size=5).map(lambda vs: ",".join(map(str, vs)))
_PRECOLOR = st.lists(st.tuples(_NUM, st.integers(-1, 4)), max_size=4).map(
    lambda ps: ",".join(f"{v}={c}" for v, c in ps)
)
# the generators that grow fastest get a lower ceiling: disk fillings grow
# about fivefold per internal vertex, and near-quad33 at 9 vertices takes 2 s
_GEN_CEILING = {"patches": 4, "hexagon-disks": 4, "near-quad33": 8}


def _opt(flag: str, values) -> st.SearchStrategy:
    """The flag with a drawn value: absent, once, or repeated."""
    return st.lists(values.map(lambda v: [flag, str(v)]), max_size=2).map(
        lambda pairs: [t for pair in pairs for t in pair]
    )


def _argv(verb: str, *opts) -> st.SearchStrategy:
    return st.tuples(*opts).map(lambda parts: [verb] + [t for p in parts for t in p])


def _gen_argv(family: str) -> st.SearchStrategy:
    top = _GEN_CEILING.get(family, 9)
    size = st.integers(-3, top)
    return _argv(
        "gen", st.just(["--family", family]), _opt("--n", _NUM),
        _opt("--max-internal", size), _opt("--max-vertices", size),
        _opt("--width", _NUM), _opt("--layers", _NUM),
    )


_FUZZ_ARGV = st.one_of(
    _argv("identify", _opt("--face", _VERTICES), _opt("--diagonal", st.sampled_from(["13", "24", "31"]))),
    _argv("contract-ladder", _opt("--q2", _VERTICES), _opt("--q3", _VERTICES)),
    _argv("cut", _opt("--d0", _NUM), _opt("--guard", _GUARD)),
    _argv("attach-ring", _opt("--vertex", _NUM)),
    _argv("color", _opt("--precolor", _PRECOLOR), _opt("--guard", _GUARD)),
    _argv("critical", _opt("--guard", _GUARD)),
    # the sweep verbs take no guard: with one, the usage is refused
    _argv("count", _opt("--precolor", _PRECOLOR), _opt("--guard", _GUARD)),
    _argv("extendset", _opt("--guard", _GUARD)),
    _argv("dominates", st.just(["--other", "-"]), _opt("--guard", _GUARD)),
    st.sampled_from(list(_FAMILIES)).flatmap(_gen_argv),
    _argv(
        "census", st.sampled_from([["--family", f] for f in ("quad33", "framed-tw", "stdin")]),
        _opt("--catalog-bound", st.integers(-3, 10)),
        _opt("--max-vertices", st.integers(-3, 8)), _opt("--patch-bound", _NUM),
        _opt("--guard", _GUARD), _opt("--jobs", st.integers(-1, 2)),
    ),
)
_SWEEP_VERBS = ("count", "extendset", "dominates")


@given(st.sampled_from(_FUZZ_SEEDS), _FUZZ_ARGV)
@settings(max_examples=200, deadline=None)
def test_exit_code_contract_on_fuzzed_arguments(text, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the usage
                code = exc.code
                assert code == 2
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    guards = [int(v) for flag, v in zip(argv, argv[1:]) if flag == "--guard"]
    if guards and (argv[0] in _SWEEP_VERBS or min(guards) < 0):
        assert code == 2 and "argument" in err.getvalue(), argv


# -- exit-code contract under fuzzed paths ----------------------------------------

# the path flags, each with the kinds of path it takes and still succeeds:
# a file to read must exist, a file to write may be new, and gen makes
# the --out-dir directory with its parents
_PATH_OK = {
    "--in": {"valid"},
    "--other": {"valid"},
    "--out": {"valid", "missing", "non-ascii"},
    "--out-dir": {"missing", "directory", "under-missing"},
}
_PATH = st.sampled_from(["valid", "missing", "directory", "under-missing", "non-ascii"])
_PATH_ARGV = st.one_of(
    _argv("faces", _opt("--in", _PATH), _opt("--out", _PATH)),
    _argv("dominates", _PATH.map(lambda k: ["--other", k]), _opt("--in", _PATH), _opt("--out", _PATH)),
    _argv("census", st.just(["--family", "stdin"]), _opt("--in", _PATH), _opt("--out", _PATH)),
    _argv("gen", st.just(["--family", "thomas-walls"]), _opt("--out", _PATH), _opt("--out-dir", _PATH)),
)


def _make_path(kind: str, root: str, i: int, text: str) -> str:
    """A path of the given kind under ``root``, named by ``i``."""
    path = os.path.join(root, str(i))
    if kind == "valid":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    elif kind == "non-ascii":
        with open(path, "wb") as fh:
            fh.write(text.replace("rings", "# caf\u00e9\nrings", 1).encode("utf-8"))
    elif kind == "directory":
        os.mkdir(path)
    elif kind == "under-missing":
        path = os.path.join(path, "g.emg")
    return path


@given(st.sampled_from(_FUZZ_SEEDS), _PATH_ARGV)
@settings(max_examples=150, deadline=None)
def test_exit_code_contract_on_fuzzed_paths(text, argv):
    # a path that cannot be read, or written to, is exit 2 with an error
    # line and no traceback
    drawn = dict(zip(argv[1::2], argv[2::2]))  # argparse keeps a flag's last value
    if "--out-dir" in drawn:
        drawn.pop("--out", None)  # gen writes the files, not the stream
    fine = all(kind in _PATH_OK[flag] for flag, kind in drawn.items() if flag in _PATH_OK)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        real = [
            _make_path(t, root, i, text) if i and argv[i - 1] in _PATH_OK else t
            for i, t in enumerate(argv)
        ]
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(real)
    assert "Traceback" not in err.getvalue()
    if fine:
        assert code in (0, 1), (argv, err.getvalue())
    else:
        assert code == 2 and err.getvalue().startswith("error: "), (argv, code)
