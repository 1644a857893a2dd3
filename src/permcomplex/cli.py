"""Command-line front end.

The subcommands are one table, COMMANDS: name, handler, help line and
options.  _scan reads a well-formed command line straight off it.  Only
to word a usage error or to print help does main build argparse, with
build_parser, the whole parser.

Every subcommand emits a JSON report to stdout (or --out) of the form
{"command", "input_digest", "checks", "payload"}.  Exit codes: 0 all
checks passed, 1 a verification check failed (including an internal
check: a boundary that does not square to zero, a gradient flow that
ends outside the critical cells, or a step of one whose incidence is not
+-1, raises BoundaryError, and a configuration matrix with two signs
ConfigurationAmbiguityError; the report names the error), 2 usage
error (one that argparse finds, such as a missing or unknown option or
command, a --coeff that is not Z, Q or a prime, an --m below 1, or an
--out or --geometry file that cannot be opened or that a write to
fails, as on a full disk, and so is a report that cannot be written to
stdout; the error report of an
argparse error or of an unwritable --out goes to stdout, that of an
unwritable stdout to stderr, and after an argparse error "command" is
null),
3 malformed JSON input (including a --face or a cochain file whose faces
are not ordered partitions of [m], and a cochain term on a face that is
not in Perm(K)), 4 invalid input complex (including one with m = 1 for
`project` and `verify --theorem image`, whose complex L(K) lives on
[m - 1]).  A report is the text of json.dumps(report, indent=1,
sort_keys=True) and a newline, written by _write_json a dict key or a
chunk of a long list at a time, each chunk encoded a level at a time
across its items; it is byte-stable for fixed inputs, and wall-clock
timing is only attached with --timing.  -h prints help to stdout and
exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from itertools import chain, islice, repeat
from operator import itemgetter

from . import bar, cubes, diagonals, permutohedron, projection, simplicial
from .homology import (PRIME_TEST_BOUND, BoundaryError, HomologySummary, complex_from_boundary,
                       is_prime)
from .homology import homology as compute_homology
from .sumatrix import ConfigurationAmbiguityError

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_BAD_COMPLEX = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    # ValueError: bad JSON or encoding; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read JSON from {path}: {exc}", EXIT_BAD_JSON)


def _load_complex(path: str):
    """The complex in the JSON file at `path` and the sha256 of its bytes.
    `from_json_dict` raises on what is not a complex on [m] and closes the
    rest downward, so what it returns needs no further check."""
    data, digest = _load_json(path)
    try:
        K = simplicial.from_json_dict(data)
    except simplicial.InvalidComplexError as exc:
        raise CliError(f"invalid complex in {path}: {exc}", EXIT_BAD_COMPLEX)
    return K, digest


def _load_projectable(path: str):
    """A complex the projection to the cube applies to: m >= 2, since its
    image complex L(K) lives on [m - 1]."""
    K, digest = _load_complex(path)
    if K.m < 2:
        raise CliError(f"invalid complex in {path}: the projection to the cube "
                       f"needs m >= 2, got m = {K.m}", EXIT_BAD_COMPLEX)
    return K, digest


def _coeff(value: str):
    if value in ("Z", "Q"):
        return value
    try:
        p = int(value)
    except ValueError:
        p = 0
    if p >= PRIME_TEST_BOUND:
        raise CliError(f"--coeff {value} is too large: primes are only tested "
                       f"below {PRIME_TEST_BOUND}", EXIT_USAGE)
    if not is_prime(p):
        raise CliError(f"--coeff must be Z, Q, or a prime, got {value}",
                       EXIT_USAGE)
    return p


def _positive_m(m: int) -> int:
    if m < 1:
        raise CliError(f"--m must be at least 1, got {m}", EXIT_USAGE)
    return m


def _summary_payload(summary: HomologySummary) -> dict:
    return {"betti": summary.betti_vector(), "groups": summary.to_json()}


# ---------------------------------------------------------------------------
# subcommands

def cmd_build(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    X = (permutohedron.build_perm_complex_C(K) if args.doubled
         else permutohedron.build_perm_complex(K))
    report["payload"] = {
        "m": X.m,
        "f_vector": X.f_vector(),
        "faces": X.all(),
    }
    return []


def cmd_homology(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    coeff = _coeff(args.coeff)
    # the Morse complex of the last-element matching: only critical faces
    cells, _, flow = permutohedron.last_element_matching(K, args.doubled)
    C = complex_from_boundary(cells, permutohedron.boundary, flow)
    summary = compute_homology(C, coeff)
    report["payload"] = _summary_payload(summary)
    return []


def cmd_tor(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    summary = bar.tor_ranks(K, _coeff(args.coeff))
    report["payload"] = _summary_payload(summary)
    return []


def cmd_diagonal(args, report):
    top = diagonals._top_cell_terms(_positive_m(args.m))
    rank = _ranks(F for _, left, right in top for F in (left, right))
    width = len(rank)  # above every rank
    terms = [{"sign": sign, "left": left, "right": right} for sign, left, right
             in sorted(top, key=lambda t: rank[id(t[1])] * width + rank[id(t[2])])]
    report["payload"] = {"m": args.m, "terms": terms}
    return []


def _ranks(faces) -> dict:
    """{id of a face: its rank among the distinct values of `faces`}, equal
    faces ranking equal whether or not they are one object.  Sorting by
    the ranks of (left, right) is sorting by the pairs, whose faces are
    read once each, not once per comparison."""
    distinct = sorted({id(F): F for F in faces}.values())
    rank, r, prior = {}, -1, None
    for F in distinct:
        if F != prior:
            r, prior = r + 1, F
        rank[id(F)] = r
    return rank


def _load_perm_cochain(path: str, X):
    """A cochain on the complex X from a file: a list of {"face": block
    list, "coeff": integer} terms of one degree on faces of X, "coeff"
    defaulting to 1.  It is returned as {face: coefficient}: the terms on
    one face add up, and a face whose sum is zero is dropped."""
    data, _ = _load_json(path)
    result = {}
    degrees = set()
    if not isinstance(data, list):
        raise CliError(f"cochain in {path} is not a list of terms", EXIT_BAD_JSON)
    for term in data:
        if not (isinstance(term, dict) and "face" in term
                and type(term.get("coeff", 1)) is int):
            raise CliError(f"cochain term {term!r} in {path} needs a face "
                           f"and an integer coeff", EXIT_BAD_JSON)
        try:
            F = permutohedron.face_from_json(term["face"], X.m)
        except ValueError as exc:
            raise CliError(f"bad face in cochain {path}: {exc}", EXIT_BAD_JSON)
        if F not in X:
            raise CliError(f"cochain {path} has a term on "
                           f"{permutohedron.face_label(F)}, which is not "
                           f"a face of Perm(K)", EXIT_BAD_JSON)
        degrees.add(X.m - len(F))
        result[F] = result.get(F, 0) + term.get("coeff", 1)
    if len(degrees) > 1:
        raise CliError(f"cochain in {path} mixes degrees {sorted(degrees)}",
                       EXIT_BAD_JSON)
    return ({F: c for F, c in result.items() if c},
            degrees.pop() if degrees else 0)


def cmd_cup(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    X = permutohedron.build_perm_complex(K)
    a, da = _load_perm_cochain(args.a, X)
    b, db = _load_perm_cochain(args.b, X)
    product = diagonals.cup_su(a, b, X, da, db)
    report["payload"] = {
        "degree": da + db,
        "terms": [{"face": F, "coeff": c}
                  for F, c in sorted(product.items())],
    }
    return []


def _parse_face(text: str, m: int):
    """Accept either bar notation '12|34' or JSON [[1,2],[3,4]].

    Bar notation reads each character of a block as one element, so it
    only covers m <= 9; use JSON beyond that."""
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = [[int(ch) for ch in part] for part in text.split("|")]
        return permutohedron.face_from_json(data, m)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"cannot parse face {text!r}: {exc}", EXIT_BAD_JSON)


def cmd_project(args, report):
    K, report["input_digest"] = _load_projectable(args.complex)
    L = projection.L_of_K(K)
    payload = {"L": simplicial.to_json_dict(L)}
    if args.face is not None:
        F = _parse_face(args.face, K.m)
        sigma, tau = projection.rho_face(F)
        payload["face_image"] = {"sigma": list(sigma), "tau": list(tau),
                                 "dimension_preserved":
                                     projection.blocks_are_intervals(F)}
    report["payload"] = payload
    return []


def cmd_rmac(args, report):
    L, report["input_digest"] = _load_complex(args.complex)
    coeff = _coeff(args.coeff)  # checked without --homology too
    cells = cubes.build_rmac(L)
    payload = {"m": L.m, "cells": sum(map(len, cells.values()))}
    if args.homology:
        summary = compute_homology(complex_from_boundary(cells, cubes.cube_boundary), coeff)
        payload.update(_summary_payload(summary))
    report["payload"] = payload
    return []


def cmd_verify(args, report):
    if args.theorem == "su-cai":
        if args.m is None:
            raise CliError("--theorem su-cai needs --m", EXIT_USAGE)
        result = projection.verify_su_cai(_positive_m(args.m))
    else:  # "image", the only other choice
        if args.complex is None:
            raise CliError("--theorem image needs --complex", EXIT_USAGE)
        K, report["input_digest"] = _load_projectable(args.complex)
        result = projection.verify_image(K)
    report["payload"] = result
    return [(args.theorem, result["passed"])]


def cmd_geometry(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    payload = permutohedron.geometry_json(permutohedron.build_perm_complex(K))
    if not args.geometry:
        report["payload"] = payload
        return []
    try:  # opening, writing and closing: a full disk fails at any of them
        with open(args.geometry, "w") as fh:
            _write_json(payload, fh.write)
    except OSError as exc:
        raise CliError(f"cannot write the geometry to {args.geometry}: {exc}",
                       EXIT_USAGE)
    report["payload"] = {"written": args.geometry,
                         "vertices": len(payload["vertices"]),
                         "faces": len(payload["faces"])}
    return []


# ---------------------------------------------------------------------------

# The subcommands: name -> (handler, help line, options), an option being
# its flag and the keywords of its add_argument.
_COMPLEX = ("--complex", {"required": True})
_COEFF = ("--coeff", {"default": "Z"})
COMMANDS = {
    "build": (cmd_build, "build Perm(K) and list its faces", (
        _COMPLEX,
        ("--doubled", {"action": "store_true",
                       "help": "build the doubled complex on [2m] instead"}))),
    "homology": (cmd_homology, "homology of Perm(K)", (
        _COMPLEX, ("--doubled", {"action": "store_true"}), _COEFF)),
    "tor": (cmd_tor, "Tor ranks from the bar construction", (_COMPLEX, _COEFF)),
    "diagonal": (cmd_diagonal, "top-cell diagonal expansion", (
        ("--m", {"type": int, "required": True}),)),
    "cup": (cmd_cup, "cup product of two cochains on Perm(K)", (
        _COMPLEX, ("--a", {"required": True}), ("--b", {"required": True}))),
    "project": (cmd_project, "L(K) and optional face image", (
        _COMPLEX,
        ("--face", {"help": "JSON block list of a single face to project"}))),
    "rmac": (cmd_rmac, "real moment-angle complex of L", (
        _COMPLEX, ("--homology", {"action": "store_true"}), _COEFF)),
    "verify": (cmd_verify, "machine checks of the identities", (
        ("--theorem", {"required": True, "choices": ["su-cai", "image"]}),
        ("--m", {"type": int}), ("--complex", {}))),
    "geometry": (cmd_geometry, "exact coordinates for export", (
        _COMPLEX, ("--geometry", {"help": "output file for the geometry JSON"}))),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise CliError, so that they
    end in a JSON report as every other error does."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", EXIT_USAGE)


def _scan(argv):
    """The Namespace that build_parser().parse_args(argv) returns, read
    straight off COMMANDS, or None where argparse must decide.

    It reads --out VALUE and --timing before the command, an exact command
    name, and then that command's exact flags: a store_true flag alone,
    any other flag followed by one value, which goes through the option's
    type and must be one of its choices.  Anything else is left to
    argparse, whose rules and texts are not repeated here: a missing
    command or required option, a token that is not an exact flag in its
    place (an abbreviation, --flag=value, -h, --, a global flag after the
    command), a value that is missing, starts with "-", fails its type or
    is not a choice.
    """
    flags = {"--out": {}, "--timing": {"action": "store_true"}}  # as build_parser adds them
    namespace = {"out": None, "timing": False}
    required = set()
    tokens = iter(argv)
    for token in tokens:
        keywords = flags.get(token)
        if keywords is None:
            if "command" in namespace or token not in COMMANDS:
                return None
            fn, _, options = COMMANDS[token]
            flags = dict(options)
            namespace.update(command=token, fn=fn)
            for flag, option in options:
                store_true = option.get("action") == "store_true"
                namespace[_dest(flag)] = False if store_true else option.get("default")
            required = {flag for flag, option in options if option.get("required")}
            continue
        required.discard(token)
        if keywords.get("action") == "store_true":
            namespace[_dest(token)] = True
            continue
        value = next(tokens, "-")  # no value reads as one that starts with "-"
        if value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        namespace[_dest(token)] = value
    if "command" not in namespace or required:
        return None
    return argparse.Namespace(**namespace)


def _dest(flag: str) -> str:
    """The attribute argparse stores a long flag in."""
    return flag[2:].replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The `perm` parser, every command a subparser with its options.

    main builds it only when _scan cannot read argv, to word a usage
    error or print help, so its texts are the ones a user sees.
    """
    parser = _Parser(
        prog="perm",
        description="Permutohedral complexes, their (co)homology, and the "
                    "cellular diagonals of the permutohedron and the cube.")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing to the report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.set_defaults(fn=fn)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    report = {"command": None, "input_digest": None, "checks": [],
              "payload": None}
    try:
        args = _scan(argv) or build_parser().parse_args(argv)
        report["command"] = [args.command]
        try:
            out = open(args.out, "w") if args.out else nullcontext(sys.stdout)
        except OSError as exc:
            raise CliError(f"cannot write the report to {args.out}: {exc}",
                           EXIT_USAGE)
    except CliError as exc:  # its report goes to stdout
        report["error"] = str(exc)
        _emit(report, sys.stdout)
        return exc.code
    try:
        with out as fh:
            code = _run(args, report)
            _emit(report, fh)
            fh.flush()
    # A command turns each OSError of its own into a CliError, so this is
    # writing or closing the report, as on a full disk.  The error report
    # of --out goes to stdout, as that of an --out that cannot be opened
    # does, and that of stdout to stderr.
    except OSError as exc:
        error = {"command": report["command"], "input_digest": None, "checks": [],
                 "payload": None,
                 "error": f"cannot write the report to {args.out or 'stdout'}: {exc}"}
        if args.out:
            _emit(error, sys.stdout)
        else:
            _emit(error, sys.stderr)
            _drop_stdout()
        return EXIT_USAGE
    return code


def _drop_stdout():
    """Point stdout's descriptor at the null device.  A buffered stdout
    keeps the bytes a failed write could not take, and its flush at exit
    would fail on them again, with a second error and exit code 120."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not a file, or closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(args, report) -> int:
    """Run the subcommand into `report`; its exit code."""
    started = time.monotonic()
    try:
        checks = args.fn(args, report)
    except CliError as exc:
        report["error"] = str(exc)
        return exc.code
    # an internal check that fails: the boundary does not square to zero,
    # or a configuration matrix has two signs
    except (BoundaryError, ConfigurationAmbiguityError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return EXIT_CHECK_FAILED
    report["checks"] = [{"name": name, "passed": ok} for name, ok in checks]
    if args.timing:
        report["elapsed_s"] = round(time.monotonic() - started, 3)
    return 0 if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def _emit(report, fh):
    # the text of json.dumps(report, indent=1, sort_keys=True), streamed
    # by _write_json: never held whole, and faster than json.dump, which an
    # indent sends through json's pure-Python encoder value by value
    _write_json(report, fh.write)
    fh.write("\n")


# The items of a long list encoded at a time: the writer holds the texts
# of one chunk, and each level of a chunk is encoded across all its items.
_CHUNK = 1024
_encode_str = json.encoder.encode_basestring_ascii


def _write_json(x, write, pad="") -> None:
    """Write the text of json.dumps(x, indent=1, sort_keys=True) through
    `write`, its lines below the first indented by `pad`, a piece at a
    time: a dict key by key, and a list of more than _CHUNK items a chunk
    of _CHUNK items at a time.  Below that the text is built by _texts,
    a level at a time."""
    inner = pad + " "
    if isinstance(x, dict) and x:
        sep = "{\n" + inner
        for k in sorted(x):
            write(sep + _key(k) + ": ")
            _write_json(x[k], write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(x, (list, tuple)) and len(x) > _CHUNK:
        sep = ",\n" + inner
        head = "[\n" + inner
        for start in range(0, len(x), _CHUNK):
            write(head + sep.join(_texts(x[start:start + _CHUNK], inner)))
            head = sep
        write("\n" + pad + "]")
    else:
        write(_text(x, pad))


def _key(k) -> str:
    """The text of a dict key: json writes a non-string key as a string."""
    return _encode_str(k if isinstance(k, str) else json.dumps(k))


def _text(x, pad) -> str:
    """The text of one value whose lines below the first are indented by
    `pad`."""
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + " "
        return ("[\n" + inner + (",\n" + inner).join(_texts(x, inner))
                + "\n" + pad + "]")
    if isinstance(x, dict):
        return next(_dict_texts([x], pad))
    if type(x) is int:
        return int.__repr__(x)
    # floats, bools and None by json's rules
    return _encode_str(x) if isinstance(x, str) else json.dumps(x)


def _texts(items, pad):
    """The texts of the values in the list `items`, as _text gives them,
    each level encoded across all the items at once.  Exact ints and
    strings are one map each, a list of sequences is encoded a level at
    a time by _seq_texts, and dicts sharing one key set by _dict_texts;
    anything else falls back to _text, value by value."""
    kinds = {*map(type, items)}
    if len(kinds) == 1:
        kind = next(iter(kinds))
        if kind is int:
            return map(int.__repr__, items)
        if kind is str:
            return map(_encode_str, items)
        if kind is dict:
            keys = items[0].keys()
            if all(map(keys.__eq__, map(dict.keys, items))):
                return _dict_texts(items, pad)
    if kinds and kinds <= {list, tuple}:
        return _seq_texts(items, pad)
    return map(_text, items, repeat(pad))


def _seq_texts(seqs, pad):
    """The texts of the lists and tuples `seqs`: the texts of all their
    items at once, one level down, joined per sequence.

    Exact-int tuples among the items, such as the blocks of faces, are
    encoded once per value and found in a table.  Only exact ints (not
    bools or floats, which compare equal to them) may share a value's
    text, so every leaf is checked first."""
    inner = pad + " "
    sep = ",\n" + inner
    children = [*chain.from_iterable(seqs)]
    if not children:
        return repeat("[]", len(seqs))
    kinds = {*map(type, children)}
    if kinds == {int}:
        child = int.__repr__
    elif kinds == {str}:
        child = _encode_str
    elif kinds == {tuple} and {*map(type, chain.from_iterable(children))} <= {int}:
        distinct = [*{*children}]
        child = dict(zip(distinct, _seq_texts(distinct, inner))).__getitem__
    else:
        child = None
    if child is None:
        texts = iter(_texts(children, inner))
        joined = map(sep.join, map(islice, repeat(texts), map(len, seqs)))
    else:
        joined = map(sep.join, map(map, repeat(child), seqs))
    wrapped = map("".join, zip(repeat("[\n" + inner), joined, repeat("\n" + pad + "]")))
    if all(seqs):
        return wrapped
    return [text if seq else "[]" for text, seq in zip(wrapped, seqs)]


def _dict_texts(dicts, pad):
    """The texts of the dicts `dicts`, which share one key set: a column
    of value texts per sorted key, zipped through one template."""
    keys = sorted(dicts[0])
    if not keys:
        return repeat("{}", len(dicts))
    inner = pad + " "
    template = ("{\n" + inner + (",\n" + inner).join(
        [_key(k).replace("%", "%%") + ": %s" for k in keys]) + "\n" + pad + "}")
    columns = [_column_texts([*map(itemgetter(k), dicts)], inner) for k in keys]
    return map(template.__mod__, zip(*columns))


def _column_texts(values, pad):
    """The texts of `values`, as _texts gives them, a tuple that repeats
    encoded once, by identity: one object has one text, and tuples that
    compare equal but hold 1, True and 1.0 are distinct objects.  Only a
    column of tuples, such as the faces of a diagonal, is looked at for
    repeats; any other column is encoded value by value."""
    if type(values[0]) is not tuple:
        return _texts(values, pad)
    ids = [*map(id, values)]
    if len({*ids}) == len(ids):
        return _texts(values, pad)
    objects = dict(zip(ids, values))
    text = dict(zip(objects, _texts([*objects.values()], pad)))
    return map(text.__getitem__, ids)


if __name__ == "__main__":
    sys.exit(main())
