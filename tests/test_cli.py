import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from permcomplex import cli, diagonals, permutohedron, simplicial
from permcomplex.cli import CliError, _write_json, build_parser, main
from permcomplex.permutohedron import full_permutohedron
from permcomplex.sumatrix import ConfigurationAmbiguityError

from conftest import validate


@pytest.fixture()
def k1_path(tmp_path):
    path = tmp_path / "k1.json"
    path.write_text(json.dumps(
        {"m": 4, "facets": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_build(capsys, k1_path):
    code, report = run(capsys, "build", "--complex", k1_path)
    assert code == 0
    assert report["payload"]["f_vector"] == [24, 36, 6]


def test_homology(capsys, k1_path):
    code, report = run(capsys, "homology", "--complex", k1_path)
    assert code == 0
    assert report["payload"]["betti"] == [1, 7]


def test_tor_agrees_with_homology(capsys, k1_path):
    code, report = run(capsys, "tor", "--complex", k1_path)
    assert code == 0
    assert report["payload"]["betti"] == [1, 7]
    degrees = {g["degree"]: g["betti"] for g in report["payload"]["groups"]}
    assert degrees == {-4: 1, -3: 7}


def test_diagonal_term_counts(capsys):
    code, report = run(capsys, "diagonal", "--m", "3")
    assert code == 0
    assert len(report["payload"]["terms"]) == 8


def test_verify_su_cai(capsys):
    code, report = run(capsys, "verify", "--theorem", "su-cai", "--m", "3")
    assert code == 0
    assert report["checks"] == [{"name": "su-cai", "passed": True}]


def test_verify_image(capsys, k1_path):
    code, report = run(capsys, "verify", "--theorem", "image",
                       "--complex", k1_path)
    assert code == 0
    assert report["checks"] == [{"name": "image", "passed": True}]
    assert report["payload"]["notes"]


def test_rmac_homology_of_the_octagon(tmp_path, capsys):
    # R_L of the m-gon is an orientable surface of genus 1 + (m - 4) 2^(m - 3),
    # with 2^m + m 2^(m - 1) + m 2^(m - 2) cells
    path = tmp_path / "octagon.json"
    path.write_text(json.dumps({"m": 8, "facets": [[i, i % 8 + 1] for i in range(1, 9)]}))
    code, report = run(capsys, "rmac", "--homology", "--complex", str(path))
    assert code == 0
    assert report["payload"]["cells"] == 1792
    assert report["payload"]["betti"] == [1, 258, 1]
    assert all(not g["torsion"] for g in report["payload"]["groups"])


def test_project_bar_notation(capsys, k1_path):
    code, report = run(capsys, "project", "--complex", k1_path,
                       "--face", "12|34")
    assert code == 0
    image = report["payload"]["face_image"]
    assert image["dimension_preserved"] is True
    assert image["sigma"] == [1, 3] and image["tau"] == []


def test_bad_json_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    assert main(["homology", "--complex", str(path)]) == 3
    capsys.readouterr()


def test_invalid_complex_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 3, "facets": [[1, 5]]}))
    assert main(["homology", "--complex", str(path)]) == 4
    capsys.readouterr()


def test_deeply_nested_json_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["homology", "--complex", str(path)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["project"], ["verify", "--theorem", "image"]])
def test_projection_of_one_vertex_is_an_invalid_complex(tmp_path, capsys, argv):
    path = tmp_path / "m1.json"
    path.write_text(json.dumps({"m": 1, "facets": [[1]]}))
    code, report = run(capsys, *argv, "--complex", str(path))
    assert code == 4
    assert "m >= 2" in report["error"]
    assert report["payload"] is None


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["homology", "--complex", str(tmp_path / "nope.json")]) == 3
    capsys.readouterr()


def test_report_is_byte_stable(capsys):
    _, first = run(capsys, "verify", "--theorem", "su-cai", "--m", "3")
    _, second = run(capsys, "verify", "--theorem", "su-cai", "--m", "3")
    assert first == second


def _skeleton(m, k):
    """The JSON of the complex of all k-subsets of [m]."""
    return {"m": m, "facets": [list(s) for s in itertools.combinations(range(1, m + 1), k)]}


# two degree-1 cochains on the full Perm at m = 4: every edge, and every
# edge weighted by 1 + the position of its two-element block
_EDGES = full_permutohedron(4).faces(1)
_ALL_EDGES = [{"face": F} for F in _EDGES]
_WEIGHTED_EDGES = [{"face": F, "coeff": 1 + [len(b) for b in F].index(2)} for F in _EDGES]


# sha256 of whole reports, so that any change to their bytes is deliberate;
# an integer stands for the full simplex on that many vertices, a list for
# a cochain file
@pytest.mark.parametrize("argv, digest", [
    (["build", "--complex", 5],
     "2b3bc38fbc98108da0bcdd7a9eae0ef52bd49ab6e6fd95b2b5743b67bef7fef2"),
    (["diagonal", "--m", "5"],
     "16966bf0d7a309bab99742777410642aff742192e378f4149442e3ee935fc672"),
    (["verify", "--theorem", "su-cai", "--m", "4"],
     "3b75351fad9ea2c230ca2c62a2e7d816ae179a1087db9be5dac28215e3fc9c35"),
    (["geometry", "--complex", 4],
     "bdbaa9a83399d3c9fa59cbc5106dfe609c6cdaed1a3d0a2b356e72f2ff2437d6"),
    (["build", "--doubled", "--complex", {"m": 3, "facets": [[1, 2], [3]]}],
     "0a88b92e842351aca0f1db58c990a2dff7a4f99650f19b54427114b8fd465dcf"),
    (["diagonal", "--m", "6"],
     "4d5b10314d8ff9950b42973d3bfc96bf33dc373ec7ced107fcab53d14543edbb"),
    (["build", "--complex", _skeleton(6, 3)],
     "0c6f39bca49272554ed30ec9df38337907afc5b701bf0a03f6be87c113ef627d"),
    (["tor", "--complex", _skeleton(4, 2)],
     "223a255fc1cc5fe91376de67b78722a594acb87b3c73d00d46a2f1b2159f7b14"),
    (["build", "--complex", 7],
     "045a330be046724d40c4a2b61f3cdbfc456665fd161f92dba51db5fe5f9b88ce"),
    (["geometry", "--complex", 6],
     "fbe287cb2e04bdce40b8151a5ac81fc0b1bcf591118f7c64fdebe3dda1b01b7f"),
    (["cup", "--complex", 4, "--a", _ALL_EDGES, "--b", _WEIGHTED_EDGES],
     "5f6212fcb783359e116126a11ea47b2da4f189b65d7bd591d06cc1693bfa6d5d"),
    (["verify", "--theorem", "su-cai", "--m", "6"],
     "331fdf33898ad3c74202eb7238f65361916199103c3bffa78b2f5ae315e9c670"),
    # the reports that carry cube cells: the image check (skeleton(4, 1)
    # with its F(13|24) note), the image cell of an interval and of a
    # non-interval face, and the homology of a real moment-angle complex
    (["verify", "--theorem", "image", "--complex", _skeleton(4, 2)],
     "1d25eab32795dd3ce740a24f5804c62dfd4a1541d222fcb78f25e90086d02d49"),
    (["verify", "--theorem", "image", "--complex", _skeleton(6, 3)],
     "52c7a259ee8b4692f95811c2f30566704b9eb85de04f3907cac8727dc8ce4c7c"),
    (["project", "--complex", 5, "--face", "12|3|45"],
     "644b1929f9bdf7b8d1e1c071b58fe9b85c4aa7d6c544d635c60993f391c73339"),
    (["project", "--complex", 5, "--face", "13|2|45"],
     "fbce7e93668f227f50c115bd7c5c10c7a382b1369df92e96e3ee36108034b2a1"),
    (["rmac", "--homology", "--complex", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}],
     "045702b0427aaa4635db353afd9b997bebe47e480bfe52fcd1eec2272ad7fd48"),
    # homology through the Morse complex: the 1-skeleton on [5], the
    # 5-cycle over GF(2), and a doubled complex
    (["homology", "--complex", _skeleton(5, 2)],
     "40fd5a4f3b791fd1848370f131df50e7ab37f7cc287da43d7e00d8326d40ee67"),
    (["homology", "--coeff", "2", "--complex",
      {"m": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}],
     "f3edaeaeb3331f5d73e4b1b436e2a761533ee6e2237dfc9359b2721feed909e2"),
    (["homology", "--doubled", "--complex", {"m": 3, "facets": [[1, 2], [3]]}],
     "1507585b6b9760bb0fd3b031a1cb54468da67390a5fbd84df74858355564ce27"),
    # the doubled complex of skeleton(3, 0), whose three minimal nonfaces
    # are more than either doubled complex above has
    (["build", "--doubled", "--complex", _skeleton(3, 1)],
     "483f211525d1950862e2c3c6f21e4e5dbbaaf8099ffb40570ae81c029cddf10f"),
    (["homology", "--doubled", "--complex", _skeleton(3, 1)],
     "8fa9d8f1131dfa4cc9c9335f844ed9c49c3b53cc85f5dd4a97a1eda0fd5a081b"),
])
def test_report_bytes_are_pinned(tmp_path, argv, digest):
    assert _pinned_run(tmp_path, argv) == (0, digest)


def test_geometry_file_bytes_are_pinned(tmp_path):
    """The --geometry file: the geometry payload, with no newline."""
    target = tmp_path / "g.json"
    assert _pinned_run(tmp_path, ["geometry", "--complex", 4, "--geometry", str(target)])[0] == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "22622244749c9e3803badc134b576ed8cd471f73335633276629ad6f37de2d83")


def test_error_report_bytes_are_pinned(tmp_path):
    assert _pinned_run(tmp_path, ["homology", "--coeff", "4", "--complex", 4]) == (
        2, "c4f28ba41e9b50d700daf1b16797b6467732a38f6f0b0d2930f251f7fb0d8cc5")


def _pinned_run(tmp_path, argv):
    """Exit code and report digest of `argv`, whose integer or dict stands
    for a complex (the full simplex on that many vertices, or the JSON)
    and whose list stands for a cochain file holding it."""
    def to_path(i, arg):
        if isinstance(arg, str):
            return arg
        if isinstance(arg, int):
            arg = {"m": arg, "facets": [list(range(1, arg + 1))]}
        path = tmp_path / ("complex.json" if isinstance(arg, dict) else f"cochain{i}.json")
        path.write_text(json.dumps(arg))
        return str(path)

    argv = [to_path(i, arg) for i, arg in enumerate(argv)]
    out = tmp_path / "report.json"
    code = main(["--out", str(out)] + argv)
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


# Values json can write, with ints, bools and floats mixed in short lists
# so that equal-hashing 1, True and 1.0 meet at the same indent.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)
                      | st.lists(st.sampled_from([0, 1, True, False, 1.0, -0.0]),
                                 max_size=3)),
    max_leaves=20)


# one int tuple held many times, at several indents, as faces share blocks
_shared = (1, 2)
# objects that dicts of one key set hold in one column, repeated across the
# dicts: tuples that compare equal but are written differently, empty
# containers, and repeats that hold repeats
_ones = [(1,), (True,), (1.0,)]
_empty = ([], {}, ())
_inner = (_shared, _shared, (True, 2))
_outer = (_inner, _shared, _inner, ())
_row = {"f": _outer, "g": _inner}


@given(_json_values)
@example([[1], [True], [1.0], [1, True], [True, 1], [1, 1.0], [1]])
@example({"a": [_shared, _shared, (True, 2)], "b": [[_shared], (_shared, [1.0, 2])],
          "c": _shared, "d": [{"e": _shared}, _shared]})
@example([[_shared, _shared, (True, 2), ()], [_shared, _shared], [(), _shared],
          [_shared, (3,), _shared], [(3,), _shared], [_shared, (True, 2)]])
@example({"a": [[_shared, _shared]], "b": [_shared, _shared], "c": [[[_shared]]]})
@example({"a": [float("nan"), float("inf"), -float("inf")], "": [[], {}, ()]})
@example([{"sign": 1 - 2 * (i % 2), "left": _shared, "right": (_shared,)} for i in range(7)])
@example([{"a": x, "b": t} for x, t in zip([1, True, 1.0] * 3, _ones * 3)])
@example([{"a": t, "b": (t, t)} for t in [_ones[1], *_ones, [1], _ones[0]]])
@example([{"a": _empty[0], "b": _empty[1], "c": _empty[2]}] * 4 + [{"a": [], "b": {}, "c": ()}])
@example([{"r": _outer, "s": [_row, _row], "t": _inner} for _ in range(3)]
         + [{"r": _inner, "s": [_row], "t": (_outer, _outer)}] * 2)
@example(["\u00e9\x00\n\x1f\"\\\u2028\U0001f600", ("tuple", (1, 2)), {"\x7f": {}}])
def test_writer_writes_the_bytes_of_json_dumps(value):
    pieces = []
    _write_json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, indent=1, sort_keys=True)


def test_ranks_order_faces_by_value():
    # equal faces rank equal whether or not they are one object, so the
    # diagonal sorted by ranks is the diagonal sorted by its faces
    faces = [((2,), (1,)), tuple([(1, 2)]), ((1,), (2,)), tuple([(1, 2)]), ((2,), (1,))]
    assert faces[1] is not faces[3]
    rank = cli._ranks(faces)
    assert rank[id(faces[1])] == rank[id(faces[3])] == 1  # after ((1,), (2,))
    assert sorted(faces, key=lambda F: rank[id(F)]) == sorted(faces)


def test_diagonal_terms_are_sorted_by_their_faces(capsys):
    # the ranks of the left and the right face order the terms as the
    # pairs of faces do, even where there are more faces than terms
    for m in range(1, 6):
        code, report = run(capsys, "diagonal", "--m", str(m))
        terms = [[t["left"], t["right"]] for t in report["payload"]["terms"]]
        pairs = [[list(map(list, left)), list(map(list, right))]
                 for _, left, right in diagonals._top_cell_terms(m)]
        assert code == 0 and terms == sorted(pairs), m


def test_writer_streams():
    pieces = []
    _write_json({"faces": [[[i], [i + 1, i + 2]] for i in range(10000)]},
                pieces.append)
    assert len(pieces) > 10
    assert max(map(len, pieces)) < 200_000


# Lists of more than one chunk (cli._CHUNK items), whose items change
# type across a chunk boundary, and the level-wise paths of a chunk: faces
# whose blocks compare equal but are written differently, dicts whose key
# sets differ, and keys a template or a format string would misread.
_long = cli._CHUNK + 8
_faces_mixed = [((0,), (1, 2)), ((False,), (1, 2)), ((1.0,), ()), ((), (0,)),
                ((0,),), (), ((0, 1),), ((0, True),), ((True, 1),)]
_keys = {"%s": 1, "{0}": [2], "%%": (3,), "%(a)s": "%d", "\u00e9\u2603": {"{": "}"}}


@pytest.mark.parametrize("value", [
    list(range(cli._CHUNK - 4)) + ["x", 2.5, None, True, (1, 2), [3], {"k": [4]}, "y", ()] * 3,
    [(1, 2)] * (cli._CHUNK - 1) + [(True, 2), (1.0, 2), (1, 2), [1, 2], "(1, 2)"] * 3,
    [[(i % 3,), (3, 4)] for i in range(cli._CHUNK - 2)] + [[(False,), (3, 4)], [(0.0,), (3, 4)]] * 3,
    _faces_mixed * (_long // len(_faces_mixed) + 1),
    {"faces": _faces_mixed * (_long // len(_faces_mixed) + 1), "n": [_faces_mixed] * 3},
    [{"a": 1, "b": [1]}, {"a": 2}, {"b": (3,), "c": {}}, {}, {"a": 1, "b": [1]}] * (_long // 5),
    [{"a": 1}, {"a": "1"}, {"a": True}, {"a": [1]}, {"a": (1,)}, {"a": {}}] * (_long // 6),
    [{"sign": 1 - 2 * (i % 2), "left": F, "right": F[::-1]}
     for i, F in enumerate(_faces_mixed * (_long // len(_faces_mixed)))],
    [_keys, _keys, dict(_keys)] + [_keys] * _long,
    _keys,
    [{1: "a", 2: [1, 2]}, {2: [], 1: "b"}, {2.5: 1, -1: 2}, {True: 1, False: 2}, {None: [3]}] * 3,
    [[], (), [[]], [[], ()], {}, [{}], [[1], []]] * (_long // 7 + 1),
])
def test_writer_matches_json_dumps_across_chunks_and_levels(value):
    pieces = []
    _write_json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, indent=1, sort_keys=True)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    code, report = run(capsys, "--out", str(target), "diagonal", "--m", "3")
    assert code == 2
    assert str(target) in report["error"]
    assert report["payload"] is None


def test_unwritable_geometry_is_a_usage_error(tmp_path, capsys, k1_path):
    target = tmp_path / "no" / "such" / "g.json"
    code, report = run(capsys, "geometry", "--complex", k1_path,
                       "--geometry", str(target))
    assert code == 2
    assert str(target) in report["error"]
    assert report["payload"] is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, error", [
    (["--out", "/dev/full", "build", "--complex"], "cannot write the report to /dev/full"),
    (["geometry", "--geometry", "/dev/full", "--complex"],
     "cannot write the geometry to /dev/full"),
])
def test_failed_write_is_a_usage_error(capsys, k1_path, argv, error):
    """A write that fails partway, here for a full disk, ends in exit 2 and
    a JSON error report on stdout, not in a traceback."""
    code, report = run(capsys, *argv, k1_path)
    assert code == 2
    assert report["error"].startswith(error)
    assert report["payload"] is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_unwritable_stdout_is_a_usage_error(k1_path, unbuffered):
    """A report that cannot be written to stdout ends in exit 2 and a JSON
    error report on stderr, not in a traceback, whether stdout is buffered
    (the report waits in the buffer and the flush at exit fails again) or
    not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "permcomplex.cli", "homology", "--complex", k1_path],
            env=env, stdout=full, stderr=subprocess.PIPE)
    report = json.loads(done.stderr)
    assert done.returncode == 2
    assert report["error"].startswith("cannot write the report to stdout")
    assert report["command"] == ["homology"] and report["payload"] is None


def _flip_split_sign(monkeypatch, size, i):
    """Negate the sign of the i-th split of every block of `size` elements
    in the boundary of the permutohedron."""
    splits = permutohedron._splits

    def flipped(block):
        table = splits(block)
        if len(block) != size:
            return table
        M, rest, sign = table[i]
        return table[:i] + ((M, rest, -sign),) + table[i + 1:]
    monkeypatch.setattr(permutohedron, "_splits", flipped)


_MUTATION_SUITE = {"full5": simplicial.full_simplex(5), "skel5_2": simplicial.skeleton(5, 2),
                   "polygon12345": simplicial.polygon_boundary([1, 2, 3, 4, 5])}


@pytest.fixture(scope="module")
def mutation_suite(tmp_path_factory):
    """{label: (path, the unmutated homology report)} of the three inputs."""
    root = tmp_path_factory.mktemp("mutation")
    suite = {}
    for label, K in _MUTATION_SUITE.items():
        path = root / f"{label}.json"
        path.write_text(json.dumps(simplicial.to_json_dict(K)))
        out = root / f"{label}-report.json"
        assert main(["--out", str(out), "homology", "--complex", str(path)]) == 0
        suite[label] = str(path), json.loads(out.read_text())
    return suite


def test_internal_check_failure_is_a_json_error(capsys, monkeypatch, mutation_suite):
    _flip_split_sign(monkeypatch, 2, 0)
    code, report = run(capsys, "homology", "--complex", mutation_suite["full5"][0])
    assert code == 1
    assert report["error"].startswith("BoundaryError: D_")
    assert report["payload"] is None and report["checks"] == []

    def ambiguous(m):
        raise ConfigurationAmbiguityError("two signs")
    monkeypatch.setattr(diagonals, "_top_cell_terms", ambiguous)
    code, report = run(capsys, "diagonal", "--m", "3")
    assert code == 1
    assert report["error"] == "ConfigurationAmbiguityError: two signs"
    assert report["payload"] is None


# the split signs of a block of 2, 3 and 4 elements: 2 + 6 + 14
@pytest.mark.parametrize("size, i", [(size, i) for size in (2, 3, 4) for i in range(2 ** size - 2)])
def test_a_flipped_split_sign_is_caught_or_harmless(capsys, monkeypatch, mutation_suite, size, i):
    """With one split sign of the boundary flipped, `perm homology` either
    fails with a JSON error or gives the unmutated answer: the d o d check
    on the Morse complex catches every one of these flips on full5, and
    those on blocks of 2 or 3 on skel5_2 too."""
    _flip_split_sign(monkeypatch, size, i)
    caught = set()
    for label, (path, want) in mutation_suite.items():
        code, report = run(capsys, "homology", "--complex", path)
        if code:
            assert code == 1 and report["error"].startswith("BoundaryError")
            assert report["payload"] is None
            caught.add(label)
        else:
            assert report == want, label
    assert caught == ({"full5", "skel5_2"} if size < 4 else {"full5"})


@pytest.mark.parametrize("argv, needs", [
    (["homology"], "required: --complex"),
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "required: command"),
    (["diagonal", "--m", "x"], "invalid int value: 'x'"),
    (["verify", "--theorem", "both", "--m", "3"], "invalid choice: 'both'"),
    (["homology", "--complex", "k1.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["--bogus", "homology", "--complex", "k1.json"], "unrecognized arguments: --bogus"),
])
def test_argparse_usage_error_is_a_json_error(tmp_path, capsys, argv, needs):
    code, report = run(capsys, "--out", str(tmp_path / "report.json"), *argv)
    assert code == 2
    assert needs in report["error"]
    assert report["payload"] is None and report["command"] is None
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [["-h"], ["homology", "-h"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: perm")


@pytest.mark.parametrize("coeff", ["4", "1", "0", "-2", "x"])
@pytest.mark.parametrize("command", ["homology", "tor", "rmac"])
def test_bad_coeff_is_a_usage_error(capsys, k1_path, command, coeff):
    """rmac checks --coeff without --homology too."""
    code, report = run(capsys, command, "--coeff", coeff, "--complex", k1_path)
    assert code == 2
    assert coeff in report["error"]
    assert report["payload"] is None


def test_prime_coeff(capsys, k1_path):
    code, report = run(capsys, "homology", "--coeff", "3", "--complex", k1_path)
    assert code == 0
    assert report["payload"]["betti"] == [1, 7]


@pytest.mark.parametrize("data", [
    {"m": "4", "facets": [[1, 2]]},
    {"m": 3, "facets": [["a"]]},
    {"m": 3, "facets": 5},
    {"m": True, "facets": [[1]]},
    {"m": 3, "facets": [[1, True]]},
    [3, [[1, 2]]],
])
def test_mistyped_complex_json_is_an_invalid_complex(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "homology", "--complex", str(path))
    assert code == 4
    assert report["error"] and report["payload"] is None


def test_coeff_beyond_the_prime_test_is_a_usage_error(capsys, k1_path):
    coeff = str(3317044064679887385961981)  # least strong pseudoprime to 2..41
    code, report = run(capsys, "homology", "--coeff", coeff, "--complex", k1_path)
    assert code == 2
    assert "too large" in report["error"]


@pytest.mark.parametrize("m", ["0", "-3"])
@pytest.mark.parametrize("argv", [["diagonal"], ["verify", "--theorem", "su-cai"]])
def test_m_below_one_is_a_usage_error(capsys, argv, m):
    code, report = run(capsys, *argv, "--m", m)
    assert code == 2
    assert m in report["error"]
    assert report["payload"] is None


@pytest.mark.parametrize("theorem, needs", [("su-cai", "--m"),
                                            ("image", "--complex")])
def test_verify_without_its_input_is_a_usage_error(capsys, theorem, needs):
    code, report = run(capsys, "verify", "--theorem", theorem)
    assert code == 2
    assert needs in report["error"]
    assert report["payload"] is None


@pytest.mark.parametrize("argv", [
    ["build", "--complex", None],
    ["diagonal", "--m", "4"],
    ["verify", "--theorem", "su-cai", "--m", "4"],
])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, k1_path, argv):
    argv = [k1_path if a is None else a for a in argv]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(["--out", str(out)] + argv) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


@pytest.mark.parametrize("face", ['[[1,2],[2,3],[4]]', "5", '[[1,2],[3,"a"]]',
                                  "[" * 5000 + "]" * 5000, "", "|"])
def test_malformed_face_is_malformed_input(capsys, k1_path, face):
    code, report = run(capsys, "project", "--complex", k1_path, "--face", face)
    assert code == 3
    assert face in report["error"]
    assert report["payload"] is None


def _cochain(tmp_path, name, terms):
    path = tmp_path / name
    path.write_text(json.dumps(terms))
    return str(path)


def test_cochain_terms_on_one_face_add_up(tmp_path):
    """A cochain file may list a face twice: its coefficients add up, and
    a face whose sum is 0 is as if it were not listed."""
    first, rest = _ALL_EDGES[0], _ALL_EDGES[1:]
    F = first["face"]

    def cup(terms):
        return _pinned_run(tmp_path, ["cup", "--complex", 4, "--a", terms, "--b", _WEIGHTED_EDGES])

    assert cup(rest + [{"face": F}, {"face": F, "coeff": -1}]) == cup(rest)
    assert cup(rest + [{"face": F, "coeff": 1}, {"face": F, "coeff": 2}]) == (
        cup(rest + [{"face": F, "coeff": 3}]))
    assert len({cup(rest), cup([first] + rest), cup(rest + [{"face": F, "coeff": 3}])}) == 3
    # the loaded cochain is a chain: no zero coefficient
    path = _cochain(tmp_path, "a.json", [{"face": F}, {"face": F, "coeff": -1}])
    assert cli._load_perm_cochain(path, full_permutohedron(4)) == ({}, 1)


def test_cup_of_vertex_cochains(tmp_path, capsys, k1_path):
    a = _cochain(tmp_path, "a.json", [{"face": [[1], [2], [3], [4]]}])
    code, report = run(capsys, "cup", "--complex", k1_path, "--a", a, "--b", a)
    assert code == 0
    assert report["payload"] == {
        "degree": 0, "terms": [{"face": [[1], [2], [3], [4]], "coeff": 1}]}


@pytest.mark.parametrize("term", [{"face": [[1, 2], [2, 3], [4]], "coeff": 1},
                                  {"coeff": 1},
                                  {"face": [[1], [2], [3], [4]], "coeff": "x"}])
def test_malformed_cochain_is_malformed_input(tmp_path, capsys, k1_path, term):
    a = _cochain(tmp_path, "a.json", [{"face": [[1], [2], [3], [4]]}])
    b = _cochain(tmp_path, "b.json", [term])
    code, report = run(capsys, "cup", "--complex", k1_path, "--a", a, "--b", b)
    assert code == 3
    assert "b.json" in report["error"]
    assert report["payload"] is None


@pytest.mark.parametrize("which", ["--a", "--b"])
def test_cochain_off_the_complex_is_malformed_input(tmp_path, capsys, which):
    # F(123) is a face of the permutohedron but not of Perm(K), K = {12, 3}
    K = tmp_path / "k.json"
    K.write_text(json.dumps({"m": 3, "facets": [[1, 2], [3]]}))
    top = _cochain(tmp_path, "top.json", [{"face": [[1, 2, 3]]}])
    vertex = _cochain(tmp_path, "vertex.json", [{"face": [[1], [2], [3]]}])
    a, b = (top, vertex) if which == "--a" else (vertex, top)
    code, report = run(capsys, "cup", "--complex", str(K), "--a", a, "--b", b)
    assert code == 3
    assert "top.json" in report["error"] and "F(123)" in report["error"]
    assert report["payload"] is None


# The input contract: whatever the --complex file, --coeff or --face, a run
# ends with exit 0, 2, 3 or 4, and a nonzero exit writes a JSON "error".
# Complexes stay on m <= 5 with a few short facets, so each run is small.
_not_int = _json_values.filter(lambda v: type(v) is not int)
_complex_data = (
    st.integers(1, 5).flatmap(lambda m: st.fixed_dictionaries(
        {"m": st.just(m),
         "facets": st.lists(st.lists(st.integers(1, m), max_size=m), max_size=5)}))
    | st.fixed_dictionaries(
        {"m": st.integers(-1, 5) | _not_int,
         "facets": st.lists(st.lists(st.integers(-1, 6) | _not_int, max_size=5),
                            max_size=5) | _not_int},
        optional={"extra": _json_values}))
_complex_bytes = (_complex_data.map(json.dumps).map(str.encode)
                  | _json_values.map(json.dumps).map(str.encode)
                  | st.binary(max_size=24))
_coeffs = (st.sampled_from(["Z", "Q", "2", "3", "4", "-5", " 7 ", "07", "1_1", "٣", "2.0"])
           | st.integers(-10, 40).map(str) | st.text(max_size=6))
_faces = (st.sampled_from(["12|34", "1|2", "2|1", "123", "[[1],[2]]", "[[2,1]]", "|1", "[]"])
          | _json_values.map(json.dumps) | st.text(max_size=10))
_commands = st.sampled_from([
    ["build"], ["geometry"], ["verify", "--theorem", "image"],
    ["homology", "--coeff={coeff}"], ["tor", "--coeff={coeff}"],
    ["rmac", "--homology", "--coeff={coeff}"], ["project"], ["project", "--face={face}"]])


@settings(max_examples=150, deadline=None)
@given(_commands, _complex_bytes, _coeffs, _faces)
@example(["homology", "--coeff={coeff}"], b'{"m": 5, "facets": [[1, 2, 3, 4, 5]]}', "2", "")
@example(["project", "--face={face}"], b'{"m": 4, "facets": [[1, 2], [3, 4]]}', "", "12|34")
@example(["tor", "--coeff={coeff}"], b'{"m": 3, "facets": [[1, 2]]}', "٣", "")
@example(["build"], b'{"m": 0, "facets": []}', "", "")
@example(["project", "--face={face}"], b'{"m": 2, "facets": []}', "", "1" * 5000)
def test_cli_input_contract(command, complex_bytes, coeff, face):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        with open(path, "wb") as fh:
            fh.write(complex_bytes)
        argv = [a.format(coeff=coeff, face=face) for a in command] + ["--complex", path]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 2, 3, 4), report
    if code:
        assert isinstance(report["error"], str) and report["payload"] is None
    else:
        assert "error" not in report and report["payload"] is not None


@settings(max_examples=300, deadline=None)
@given(_complex_data)
@example({"m": 3, "facets": [[3, 1, 1], [], [2]]})
def test_a_loaded_complex_is_valid(data):
    """Every complex that the contract draws and `from_json_dict` accepts
    holds every invariant of a complex, so the CLI checks none again."""
    try:
        K = simplicial.from_json_dict(data)
    except simplicial.InvalidComplexError:
        return
    diagnostics = []
    assert validate(K, diagnostics), diagnostics


def _parse(parser, argv):
    """The Namespace that `parser` makes of argv, or its exit code and the
    text it printed or the error it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue()
    except CliError as exc:
        return exc.code, str(exc)


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("perm ")]


# one argv per command that gives every option it has, and the options as
# they parse
_EVERY_OPTION = [
    (["build", "--complex", "k.json", "--doubled"],
     {"complex": "k.json", "doubled": True}),
    (["homology", "--complex", "k.json", "--doubled", "--coeff", "3"],
     {"complex": "k.json", "doubled": True, "coeff": "3"}),
    (["tor", "--complex", "k.json", "--coeff", "2"], {"complex": "k.json", "coeff": "2"}),
    (["diagonal", "--m", "3"], {"m": 3}),
    (["cup", "--complex", "k.json", "--a", "a.json", "--b", "b.json"],
     {"complex": "k.json", "a": "a.json", "b": "b.json"}),
    (["project", "--complex", "k.json", "--face", "12|34"],
     {"complex": "k.json", "face": "12|34"}),
    (["rmac", "--complex", "k.json", "--homology", "--coeff", "5"],
     {"complex": "k.json", "homology": True, "coeff": "5"}),
    (["verify", "--theorem", "image", "--m", "4", "--complex", "k.json"],
     {"theorem": "image", "m": 4, "complex": "k.json"}),
    (["geometry", "--complex", "k.json", "--geometry", "g.json"],
     {"complex": "k.json", "geometry": "g.json"}),
]
_COMMAND_NAMES = [argv[0] for argv, _ in _EVERY_OPTION]


def test_parser_matches_the_full_parser():
    """build_parser reads every option of every command as _EVERY_OPTION
    lists it, with the global flags."""
    full = build_parser()
    for argv, options in _EVERY_OPTION:
        argv = ["--out", "r.json", "--timing"] + argv
        assert _parse(full, argv) == Namespace(
            out="r.json", timing=True, command=argv[3],
            fn=getattr(cli, "cmd_" + argv[3]), **options)
    assert sorted(_COMMAND_NAMES) == sorted(cli.COMMANDS)


def test_scan_reads_every_well_formed_example():
    """The fast path is taken: every README example and every argv of
    _EVERY_OPTION, with and without the global flags, is read off COMMANDS
    to the Namespace of the full parser."""
    full = build_parser()
    for argv in _readme_examples() + [argv for argv, _ in _EVERY_OPTION]:
        for argv in (argv, ["--out", "r.json", "--timing"] + argv):
            scanned = cli._scan(argv)
            assert scanned is not None and scanned == _parse(full, argv), argv


# Values argparse reads by rules of its own, or that a type or choices
# reject, put where a token stood.
_ODD_VALUES = ["", " 3", "0x3", "both", "su-cai", *_COMMAND_NAMES, "-1", "-", "--", "-h", "--complex"]


@st.composite
def _mutated_argvs(draw):
    """An argv of _EVERY_OPTION, with or without --out r.json --timing,
    after a few mutations: a token dropped, repeated, swapped, cut to a
    prefix, joined to the next by "=", or a value replaced by an odd one, a
    global flag moved after the command, or -h put in."""
    argv = list(draw(st.sampled_from(_EVERY_OPTION))[0])
    if draw(st.booleans()):
        argv = ["--out", "r.json", "--timing"] + argv
    for _ in range(draw(st.integers(1, 3))):
        if not argv:
            break
        i = draw(st.integers(0, len(argv) - 1))
        token = argv[i]
        kind = draw(st.sampled_from(
            ["drop", "repeat", "swap", "prefix", "equals", "value", "move", "help"]))
        if kind == "drop":
            del argv[i]
        elif kind == "repeat":
            argv.insert(i, token)
        elif kind == "swap":
            j = draw(st.integers(0, len(argv) - 1))
            argv[i], argv[j] = argv[j], token
        elif kind == "prefix" and token.startswith("--") and len(token) > 3:
            argv[i] = token[:draw(st.integers(3, len(token) - 1))]
        elif kind == "equals" and token.startswith("--") and i + 1 < len(argv):
            argv[i:i + 2] = [token + "=" + argv[i + 1]]
        elif kind == "value":  # most often a token that follows a flag
            after_flag = [k for k in range(1, len(argv)) if argv[k - 1].startswith("--")]
            argv[draw(st.sampled_from(after_flag or [i]))] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "move":
            flag = draw(st.sampled_from([["--timing"], ["--out", "r.json"]]))
            command = next((k for k, a in enumerate(argv) if a in cli.COMMANDS), 0)
            k = draw(st.integers(command + 1, len(argv)))
            argv[k:k] = flag
        elif kind == "help":
            argv.insert(draw(st.integers(0, len(argv))), "-h")
    return argv


@settings(max_examples=400, deadline=None)
@given(_mutated_argvs())
@example(["tor", "--complex", "--"])
@example(["tor", "--complex"])
@example(["verify", "--theorem", "both", "--m", "3"])
@example(["diagonal", "--m", "0x3"])
@example(["homology", "--coeff", "2"])
@example(["tor", "--complex", "k.json", "--out", "r.json"])
@example(["--out", "tor", "homology", "--complex", "k.json"])
@example(["--out=r.json", "tor", "--complex", "k.json"])
@example(["tor", "--comp", "k.json"])
def test_scan_agrees_with_the_full_parser(argv):
    """_scan either leaves argv to argparse or reads it as the full parser
    does."""
    scanned = cli._scan(argv)
    assert scanned is None or scanned == _parse(build_parser(), argv), argv


def test_only_a_usage_error_builds_the_parser(tmp_path, monkeypatch, k1_path):
    """A well-formed run is read off COMMANDS and builds no parser; a usage
    error builds the whole parser, to word the error."""
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    out = str(tmp_path / "r.json")
    assert main(["--out", out, "tor", "--complex", k1_path]) == 0
    assert progs == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", out, "tor"]) == 2
    assert progs == ["perm", *("perm " + name for name in cli.COMMANDS)]


def test_module_run_reads_sys_argv(tmp_path, k1_path):
    # python -m permcomplex.cli, which calls main() with no argv
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["homology", "--complex", k1_path]
    out, here = tmp_path / "out.json", tmp_path / "here.json"
    done = subprocess.run([sys.executable, "-m", "permcomplex.cli", "--out", str(out), *argv],
                          env=env, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert main(["--out", str(here), *argv]) == 0
    assert out.read_bytes() == here.read_bytes()
