"""Command-line front end.

Every subcommand emits a JSON report to stdout (or --out) of the form
{"command", "input_digest", "checks", "payload"}.  Exit codes: 0 all
checks passed, 1 a verification check failed, 2 usage error (argparse, a
--coeff that is not Z, Q or a prime, or an --m below 1), 3 malformed JSON
input (including a --face or a cochain file whose faces are not ordered
partitions of [m]), 4 invalid input complex.  Reports are byte-stable for
fixed inputs; wall-clock timing is only attached with --timing.
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
        "faces": [permutohedron.face_to_json(f) for f in X.all()],
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
    top = diagonals.su_top_diagonal(_positive_m(args.m))
    terms = [{"sign": sign,
              "left": permutohedron.face_to_json(left),
              "right": permutohedron.face_to_json(right)}
             for (left, right), sign in sorted(
                 top, key=lambda kv: (kv[0][0].blocks, kv[0][1].blocks))]
    report["payload"] = {"m": args.m, "terms": terms}
    return []


def _load_perm_cochain(path: str, m: int):
    """A cochain file: a list of {"face": block list, "coeff": integer}
    terms of one degree, "coeff" defaulting to 1."""
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
            F = permutohedron.face_from_json(term["face"], m)
        except ValueError as exc:
            raise CliError(f"bad face in cochain {path}: {exc}", EXIT_BAD_JSON)
        degrees.add(F.dim)
        result.add_term(F, term.get("coeff", 1))
    if len(degrees) > 1:
        raise CliError(f"cochain in {path} mixes degrees {sorted(degrees)}",
                       EXIT_BAD_JSON)
    return result, (degrees.pop() if degrees else 0)


def cmd_cup(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    X = permutohedron.build_perm_complex(K)
    a, da = _load_perm_cochain(args.a, K.m)
    b, db = _load_perm_cochain(args.b, K.m)
    product = diagonals.cup_su(a, b, X, da, db)
    report["payload"] = {
        "degree": da + db,
        "terms": [{"face": permutohedron.face_to_json(F), "coeff": c}
                  for F, c in sorted(product, key=lambda kv: kv[0].blocks)],
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
    K, report["input_digest"] = _load_complex(args.complex)
    L = projection.L_of_K(K)
    payload = {"L": simplicial.to_json_dict(L)}
    if args.face:
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
        K, report["input_digest"] = _load_complex(args.complex)
        result = projection.verify_image(K)
        report["payload"] = result
        return [("image", result["passed"])]
    raise CliError(f"unknown theorem {args.theorem}", EXIT_USAGE)


def cmd_geometry(args, report):
    K, report["input_digest"] = _load_complex(args.complex)
    X = permutohedron.build_perm_complex(K)
    payload = permutohedron.geometry_json(X)
    if args.geometry:
        with open(args.geometry, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        report["payload"] = {"written": args.geometry,
                             "vertices": len(payload["vertices"]),
                             "faces": len(payload["faces"])}
    else:
        report["payload"] = payload
    return []


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perm",
        description="Permutohedral complexes, their (co)homology, and the "
                    "cellular diagonals of the permutohedron and the cube.")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="attach wall-clock timing to the report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("build", cmd_build, help="build Perm(K) and list its faces")
    p.add_argument("--complex", required=True)
    p.add_argument("--doubled", action="store_true",
                   help="build the doubled complex on [2m] instead")

    p = add("homology", cmd_homology, help="homology of Perm(K)")
    p.add_argument("--complex", required=True)
    p.add_argument("--doubled", action="store_true")
    p.add_argument("--coeff", default="Z")

    p = add("tor", cmd_tor, help="Tor ranks from the bar construction")
    p.add_argument("--complex", required=True)
    p.add_argument("--coeff", default="Z")

    p = add("diagonal", cmd_diagonal, help="top-cell diagonal expansion")
    p.add_argument("--m", type=int, required=True)

    p = add("cup", cmd_cup, help="cup product of two cochains on Perm(K)")
    p.add_argument("--complex", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("project", cmd_project, help="L(K) and optional face image")
    p.add_argument("--complex", required=True)
    p.add_argument("--face", help="JSON block list of a single face to project")

    p = add("rmac", cmd_rmac, help="real moment-angle complex of L")
    p.add_argument("--complex", required=True)
    p.add_argument("--homology", action="store_true")
    p.add_argument("--coeff", default="Z")

    p = add("verify", cmd_verify, help="machine checks of the identities")
    p.add_argument("--theorem", required=True, choices=["su-cai", "image"])
    p.add_argument("--m", type=int)
    p.add_argument("--complex")

    p = add("geometry", cmd_geometry, help="exact coordinates for export")
    p.add_argument("--complex", required=True)
    p.add_argument("--geometry", help="output file for the geometry JSON")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"command": [args.command], "input_digest": None,
              "checks": [], "payload": None}
    started = time.monotonic()
    try:
        checks = args.fn(args, report)
    except CliError as exc:
        report["error"] = str(exc)
        _emit(report, args)
        return exc.code
    report["checks"] = [{"name": name, "passed": ok} for name, ok in checks]
    if args.timing:
        report["elapsed_s"] = round(time.monotonic() - started, 3)
    _emit(report, args)
    return 0 if all(ok for _, ok in checks) else EXIT_CHECK_FAILED


def _emit(report, args):
    # json.dumps with an indent would hold the whole text, and every chunk
    # of it, in memory at once; json.dump streams the same bytes
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
