"""Command-line front end.

The subcommands are one table, COMMANDS: name, handler, help line and
options.  build_parser builds the parser of only the command a run
names, with every other command a choice and a help line alone, so help,
usage and error texts are those of the whole parser at a quarter of the
cost.

Every subcommand emits a JSON report to stdout (or --out) of the form
{"command", "input_digest", "checks", "payload"}.  Exit codes: 0 all
checks passed, 1 a verification check failed, 2 usage error (one that
argparse finds, such as a missing or unknown option or command, a
--coeff that is not Z, Q or a prime, an --m below 1, or an --out or
--geometry file that cannot be written; the error report of an argparse
error or of an unwritable --out goes to stdout, and after an argparse
error "command" is null), 3 malformed JSON input (including a
--face or a cochain file whose faces are not ordered partitions of [m],
and a cochain term on a face that is not in Perm(K)),
4 invalid input complex (including one with m = 1 for `project` and
`verify --theorem image`, whose complex L(K) lives on [m - 1]).  A report
is the text of json.dumps(report, indent=1, sort_keys=True) and a
newline, written in chunks by _write_json rather than built whole; it is
byte-stable for fixed inputs, and wall-clock timing is only attached
with --timing.  -h prints help to stdout and exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import nullcontext

from . import bar, cubes, diagonals, permutohedron, projection, simplicial
from .homology import PRIME_TEST_BOUND, HomologySummary, complex_from_boundary, is_prime
from .homology import homology as compute_homology

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
    data, digest = _load_json(path)
    try:
        K = simplicial.from_json_dict(data)
    except simplicial.InvalidComplexError as exc:
        raise CliError(f"invalid complex in {path}: {exc}", EXIT_BAD_COMPLEX)
    diagnostics = []
    if not simplicial.validate(K, diagnostics):
        raise CliError(f"invalid complex in {path}: {diagnostics[0]}",
                       EXIT_BAD_COMPLEX)
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
    X = (permutohedron.build_perm_complex_C(K) if args.doubled
         else permutohedron.build_perm_complex(K))
    C = complex_from_boundary(X.by_dim, permutohedron.boundary)
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
    terms = [{"sign": sign, "left": left, "right": right}
             for sign, left, right in sorted(top, key=lambda t: (t[1], t[2]))]
    report["payload"] = {"m": args.m, "terms": terms}
    return []


def _load_perm_cochain(path: str, X):
    """A cochain on the complex X from a file: a list of {"face": block
    list, "coeff": integer} terms of one degree on faces of X, "coeff"
    defaulting to 1."""
    data, _ = _load_json(path)
    from .chains import FormalChain
    result = FormalChain()
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
        result.add_term(F, term.get("coeff", 1))
    if len(degrees) > 1:
        raise CliError(f"cochain in {path} mixes degrees {sorted(degrees)}",
                       EXIT_BAD_JSON)
    return result, (degrees.pop() if degrees else 0)


def cmd_cup(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    X = permutohedron.build_perm_complex(K)
    a, da = _load_perm_cochain(args.a, X)
    b, db = _load_perm_cochain(args.b, X)
    product = diagonals.cup_su(a, b, X, da, db)
    report["payload"] = {
        "degree": da + db,
        "terms": [{"face": F, "coeff": c}
                  for F, c in sorted(product)],
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
        c = projection.rho_face(F)
        payload["face_image"] = {"sigma": list(c.sigma), "tau": list(c.tau),
                                 "dimension_preserved":
                                     projection.blocks_are_intervals(F)}
    report["payload"] = payload
    return []


def cmd_rmac(args, report):
    L, report["input_digest"] = _load_complex(args.complex)
    R = cubes.build_rmac(L)
    payload = {"m": L.m, "cells": len(R.cells)}
    if args.homology:
        summary = compute_homology(R.chain_complex(), _coeff(args.coeff))
        payload.update(_summary_payload(summary))
    report["payload"] = payload
    return []


def cmd_verify(args, report):
    if args.theorem == "su-cai":
        if args.m is None:
            raise CliError("--theorem su-cai needs --m", EXIT_USAGE)
        result = projection.verify_su_cai(_positive_m(args.m))
        report["payload"] = result
        return [("su-cai", result["passed"])]
    if args.theorem == "image":
        if args.complex is None:
            raise CliError("--theorem image needs --complex", EXIT_USAGE)
        K, report["input_digest"] = _load_projectable(args.complex)
        result = projection.verify_image(K)
        report["payload"] = result
        return [("image", result["passed"])]
    raise CliError(f"unknown theorem {args.theorem}", EXIT_USAGE)


def cmd_geometry(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    payload = permutohedron.geometry_json(permutohedron.build_perm_complex(K))
    if not args.geometry:
        report["payload"] = payload
        return []
    try:
        fh = open(args.geometry, "w")
    except OSError as exc:
        raise CliError(f"cannot write the geometry to {args.geometry}: {exc}",
                       EXIT_USAGE)
    with fh:
        _write_json(payload, fh.write)
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


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The `perm` parser for the tokens argv, which it does not parse.

    Every command is a choice, with its help line, so the usage, help and
    error texts are those of the parser holding them all.  But only the
    commands named among the tokens get a parser of their own (every
    command when none is named, so build_parser() is the whole parser):
    argparse runs only the parser of the token that names the command, so
    no other is reached.  Building all nine would be most of a small job.
    """
    built = set(COMMANDS).intersection(argv) or COMMANDS

    def command_parser(command, **kwargs):
        if command not in built:
            return None
        fn, _, options = COMMANDS[command]
        parser = _Parser(**kwargs)
        parser.set_defaults(fn=fn)
        for flag, keywords in options:
            parser.add_argument(flag, **keywords)
        return parser

    parser = _Parser(
        prog="perm",
        description="Permutohedral complexes, their (co)homology, and the "
                    "cellular diagonals of the permutohedron and the cube.")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing to the report")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=command_parser)
    for name, (_, help_line, _) in COMMANDS.items():
        sub.add_parser(name, help=help_line, command=name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    report = {"command": None, "input_digest": None, "checks": [],
              "payload": None}
    try:
        args = build_parser(argv).parse_args(argv)
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
    with out as fh:
        code = _run(args, report)
        _emit(report, fh)
    return code


def _run(args, report) -> int:
    """Run the subcommand into `report`; its exit code."""
    started = time.monotonic()
    try:
        checks = args.fn(args, report)
    except CliError as exc:
        report["error"] = str(exc)
        return exc.code
    report["checks"] = [{"name": name, "passed": ok} for name, ok in checks]
    if args.timing:
        report["elapsed_s"] = round(time.monotonic() - started, 3)
    return 0 if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def _emit(report, fh):
    # the text of json.dumps(report, indent=1, sort_keys=True), written in
    # chunks: never held whole, and faster than json.dump, which an indent
    # sends through json's pure-Python encoder
    _write_json(report, fh.write)
    fh.write("\n")


def _write_json(obj, write) -> None:
    """Write the text of json.dumps(obj, indent=1, sort_keys=True) through
    `write`, in chunks of a few thousand pieces.

    A dict, or a list that holds a container, is taken item by item.  A
    list of scalars is one piece; one of exact ints (the blocks of faces,
    at most 2^m - 1 distinct per report) is built once per indent, and
    found again by identity when a list of lists holds the same object
    many times, as the faces of a complex share their block tuples.  An
    item whose own items are all int lists already written at their
    indent, as a face once each of its blocks has been seen, is one join.
    Strings are escaped by json's own ASCII encoder, ints are written by
    int.__repr__, and other scalars go through json.dumps, so floats,
    bools and None follow json's rules."""
    encode_str = json.encoder.encode_basestring_ascii
    containers = (dict, list, tuple)
    sequences = (list, tuple)
    just_int = {int}
    int_lists = {}  # (indent, *ints) -> text
    # indent -> {id of an int list inside obj: its text}; obj keeps every
    # such list alive while it is written, so no id is reused meanwhile
    by_id = {}
    pieces = []
    put = pieces.append

    def scalar(x):
        if type(x) is int:
            return int.__repr__(x)
        return encode_str(x) if isinstance(x, str) else json.dumps(x)

    def flush():
        write("".join(pieces))
        pieces.clear()

    def int_list(x, pad):
        """The text of a nonempty list x if it holds exact ints only (not
        bools or floats, which compare equal to ints), else None."""
        if type(x[0]) is not int or {*map(type, x)} != just_int:
            return None
        key = (pad, *x)
        text = int_lists.get(key)
        if text is None:
            inner = pad + " "
            text = int_lists[key] = ("[\n" + inner + (",\n" + inner).join(
                map(int.__repr__, x)) + "\n" + pad + "]")
        return text

    def value(x, pad):
        if isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = pad + " "
            sep = "{\n" + inner
            for k, v in sorted(x.items()):
                put(sep + encode_str(k if isinstance(k, str) else json.dumps(k))
                    + ": ")
                value(v, inner)
                sep = ",\n" + inner
                if len(pieces) > 4096:
                    flush()
            put("\n" + pad + "}")
        elif not isinstance(x, sequences):
            put(scalar(x))
        elif not x:
            put("[]")
        elif (text := int_list(x, pad)) is not None:
            put(text)
        elif isinstance(x[0], containers) or any(
                isinstance(v, containers) for v in x):
            inner = pad + " "
            known = by_id.setdefault(inner, {})
            below = by_id.setdefault(inner + " ", {})
            sep = "[\n" + inner
            for v in x:
                text = known.get(id(v))
                if text is None and isinstance(v, sequences) and v:
                    if type(v[0]) is int:
                        text = int_list(v, inner)
                        if text is not None:
                            known[id(v)] = text
                    elif id(v[0]) in below:  # as a face whose blocks were written
                        texts = [*map(below.get, map(id, v))]
                        if all(texts):
                            text = ("[\n " + inner + (",\n " + inner).join(texts)
                                    + "\n" + inner + "]")
                put(sep)
                if text is None:
                    value(v, inner)
                else:
                    put(text)
                sep = ",\n" + inner
                if len(pieces) > 4096:
                    flush()
            put("\n" + pad + "]")
        else:
            inner = pad + " "
            put("[\n" + inner + (",\n" + inner).join(map(scalar, x))
                + "\n" + pad + "]")

    value(obj, "")
    flush()


if __name__ == "__main__":
    sys.exit(main())
