"""Self-test of the benchmark's oracles.

    python3 -m pytest perfbench/test_checker.py

A wrong answer must be counted as a failure, and a right one must pass.
"""

import importlib.util
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import verdict  # noqa: E402


def _jobs(workload, seed=0):
    with tempfile.TemporaryDirectory() as workdir:
        return {job.name: job for job in workloads.build(workload, seed, workdir)}


def _report(payload, error=None):
    report = {"command": ["test"], "input_digest": None, "checks": [], "payload": payload}
    if error:
        report["error"] = error
    return report


def _homology(betti, torsion=()):
    groups = [{"degree": d, "betti": b, "torsion": list(dict(torsion).get(d, []))}
              for d, b in enumerate(betti)]
    return _report({"betti": betti, "groups": groups})


def test_wrong_betti_vector_and_wrong_term_count_are_failures():
    k4 = _jobs("routes")["skel4_1/homology-Z"]
    diagonal = _jobs("faces-diagonal")["diagonal-m6"]
    wrong_terms = _report({"m": 6, "terms": [{}] * (2 * 7 ** 4 - 1)})
    failures = [verdict(k4, 0, _homology([1, 6])),
                verdict(diagonal, 0, wrong_terms)]
    assert all(failures), failures


def test_right_answers_pass():
    routes = _jobs("routes")
    assert verdict(routes["skel4_1/homology-Z"], 0, _homology([1, 7])) is None
    assert verdict(routes["full5/homology-Z"], 0, _homology([1])) is None
    terms = _report({"m": 6, "terms": [{}] * (2 * 7 ** 4)})
    assert verdict(_jobs("faces-diagonal")["diagonal-m6"], 0, terms) is None


def test_cross_route_identities():
    # A made-up answer with torsion, H_0 = Z and H_1 = Z^b + Z/2, where b
    # keeps the Euler characteristic of Perm(K) for the 4-cycle K.  Over
    # GF(2) the Z/2 adds one to b_1 and b_2; Tor carries it one degree up.
    K = workloads.simplicial.polygon_boundary([1, 2, 3, 4])
    b = 1 - workloads.euler(workloads.f_vector(4, workloads.face_counts(
        4, lambda block: block in K.simplices)))
    routes = _jobs("routes")
    z, mod2, tor = (routes[f"polygon1234/{name}"] for name in ("homology-Z", "homology-GF2", "tor"))
    assert verdict(z, 0, _homology([1, b], torsion={1: [2]})) is None
    assert "GF(2)" in verdict(mod2, 0, _homology([1, b, 0]))
    assert verdict(mod2, 0, _homology([1, b + 1, 1])) is None
    groups = [{"degree": -4, "betti": 1, "torsion": []},
              {"degree": -3, "betti": b, "torsion": []},
              {"degree": -2, "betti": 0, "torsion": [2]}]
    assert verdict(tor, 0, _report({"betti": [], "groups": groups})) is None
    groups[2]["torsion"] = []
    assert "Tor" in verdict(tor, 0, _report({"betti": [], "groups": groups}))


def test_program_errors_are_failures():
    k4 = _jobs("routes")["skel4_1/homology-Z"]
    assert verdict(k4, 1, _homology([1, 7]))
    assert verdict(k4, 0, _report(None, error="boom"))
    assert verdict(k4, 0, _report({"betti": [1, 7]}))  # no groups


def test_face_counts_closed_forms():
    assert sum(workloads.face_counts(6).values()) == 4683
    assert sum(workloads.face_counts(7).values()) == 47293
    assert workloads.f_vector(4, workloads.face_counts(4)) == [24, 36, 14, 1]


def test_seed_zero_is_the_standard_suite():
    spec = importlib.util.spec_from_file_location(
        "suite_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert [K for _, K in workloads.standard_suite(0)] == conftest.standard_suite()
    assert workloads.standard_suite(1) == workloads.standard_suite(1)
    assert workloads.standard_suite(1) != workloads.standard_suite(0)


def test_references_return_their_counts():
    for compute, expected, _ in reference.REFERENCES.values():
        assert compute() == expected
