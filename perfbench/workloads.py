"""Seeded inputs, jobs and oracles of the permcomplex benchmark.

A workload is a fixed list of jobs.  Each job runs either the `perm` CLI
in-process (`cli.main`) on an input JSON file written here, or a short
chain of library calls on such a file.  Every answer is checked by
`verdict` against a closed form or a cross-route identity; the oracles
count with the small dynamic programme `face_counts` and never call the
code they check.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from permcomplex import simplicial

# By module, not by name, so that the traced run's wrappers are called.
# (`permcomplex.homology` is also the name of a function.)
homology = importlib.import_module("permcomplex.homology")
permutohedron = importlib.import_module("permcomplex.permutohedron")

WORKLOADS = ("routes", "faces-diagonal")


@dataclass
class Job:
    name: str
    cells: int  # the cells the answer is about: faces, bar words, terms
    check: Callable[[dict], str | None]  # oracle: None when the answer holds
    argv: list | None = None  # `perm` arguments, without --out
    call: Callable[[], dict] | None = None  # library job, returns its answer


def verdict(job: Job, exit_code, answer) -> str | None:
    """Why the job failed, or None.  `answer` is the CLI report (or the
    library job's result); a CLI job must also exit 0 without an error."""
    if job.argv is not None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        if answer.get("error"):
            return f"error: {answer['error']}"
        answer = answer["payload"]
    try:
        return job.check(answer)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {exc!r}"


# ---------------------------------------------------------------------------
# closed-form counts

def face_counts(m: int, is_block=lambda block: True) -> dict:
    """Number of ordered partitions of [m] into p blocks accepted by
    `is_block` (a predicate on increasing tuples), keyed by p.  With every
    block accepted this is p! * S(m, p)."""
    full = (1 << m) - 1
    table = {0: {0: 1}}
    for mask in range(1, full + 1):
        acc = {}
        sub = mask
        while sub:
            rest = table[mask ^ sub]
            if rest and is_block(tuple(i + 1 for i in range(m) if sub >> i & 1)):
                for p, n in rest.items():
                    acc[p + 1] = acc.get(p + 1, 0) + n
            sub = (sub - 1) & mask
        table[mask] = acc
    return table[full]


def f_vector(m: int, counts: dict) -> list:
    """Faces per dimension: a partition into p blocks has dimension m - p."""
    return [counts.get(m - d, 0) for d in range(max(m - p for p, n in counts.items() if n) + 1)]


def euler(f: list) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f))


def _expect(name, got, want) -> str | None:
    return None if got == want else f"{name} {got}, expected {want}"


# ---------------------------------------------------------------------------
# inputs

def _write(workdir: str, name: str, K) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(simplicial.to_json_dict(K), fh)
    return path


def _relabel(K, perm):
    """K with vertex i renamed perm[i - 1]."""
    return simplicial.from_facets(
        K.m, [[perm[i - 1] for i in s] for s in K.simplices if s])


def standard_suite(seed: int) -> list:
    """(label, complex) pairs: the 37-complex standard suite of the tests
    (full simplices, skeletons and polygon boundaries on at most 5
    vertices, and `random_suite(seed=0)`), each relabelled by a random
    permutation of its vertices drawn from `seed`.  Seed 0 keeps every
    label, so it gives the standard suite itself.

    The seed permutes labels rather than drawing other random complexes
    because the work must not depend on it: the suite's cost is mostly
    its m = 5 complexes, and `random_suite(seed)` draws between four and
    nine of those."""
    suite = []
    for m in range(2, 6):
        suite.append((f"full{m}", simplicial.full_simplex(m)))
        for d in range(m - 1):
            suite.append((f"skel{m}_{d}", simplicial.skeleton(m, d)))
    for cycle in ([1, 2, 3, 4], [1, 3, 2, 4], [1, 2, 3, 4, 5]):
        suite.append(("polygon" + "".join(map(str, cycle)),
                      simplicial.polygon_boundary(cycle)))
    suite.extend((f"random{i}", K)
                 for i, K in enumerate(simplicial.random_suite(seed=0, count=20, max_m=5)))
    if seed == 0:
        return suite
    rng = random.Random(seed)
    return [(label, _relabel(K, rng.sample(range(1, K.m + 1), K.m)))
            for label, K in suite]


# ---------------------------------------------------------------------------
# routes: homology over Z and GF(2), and Tor, of every complex in the suite

def _groups(payload) -> dict:
    """degree -> (betti, torsion) from a homology or Tor payload."""
    return {g["degree"]: (g["betti"], list(g["torsion"]))
            for g in payload["groups"]}


def _betti_matches_groups(payload, H) -> str | None:
    top = max(H, default=-1)
    return _expect("betti", payload["betti"],
                   [H.get(d, (0, []))[0] for d in range(top + 1)])


def _routes_jobs(label, K, path) -> list:
    f = f_vector(K.m, face_counts(K.m, lambda b: b in K.simplices))
    chi, cells = euler(f), sum(f)
    closed = {"skel4_1": [1, 7]}.get(label, [1] if label.startswith("full") else None)
    z = {}  # the Z answer, the reference for the other two routes

    def check_z(payload):
        H = _groups(payload)
        z.update(H)
        return (_betti_matches_groups(payload, H)
                or _expect("Euler characteristic", euler(payload["betti"]), chi)
                or (closed and _expect("betti", payload["betti"], closed))
                or (closed and _expect("torsion", [t for _, t in H.values() if t], [])))

    def check_mod2(payload):
        H = _groups(payload)
        err = (_betti_matches_groups(payload, H)
               or _expect("Euler characteristic", euler(payload["betti"]), chi))
        if err or not z:
            return err or "no Z answer to compare with"
        for q in range(K.m):
            b, t = z.get(q, (0, []))
            below = z.get(q - 1, (0, []))[1]
            want = b + sum(1 for x in t + below if x % 2 == 0)
            err = err or _expect(f"GF(2) betti at {q}", H.get(q, (0, []))[0], want)
        return err

    def check_tor(payload):
        T = _groups(payload)  # keyed by bar degree q - m
        err = _expect("Euler characteristic",
                      euler([T.get(q - K.m, (0, []))[0] for q in range(K.m)]), chi)
        err = err or _expect("Tor outside bar degrees -m..-1",
                             sorted(g for g in T if not 0 <= g + K.m < K.m), [])
        if err or not z:
            return err or "no Z answer to compare with"
        for q in range(K.m):
            want = (z.get(q, (0, []))[0], z.get(q - 1, (0, []))[1])
            err = err or _expect(f"Tor at bar degree {q - K.m}",
                                 T.get(q - K.m, (0, [])), want)
        return err

    return [Job(f"{label}/homology-Z", cells, check_z,
                argv=["homology", "--complex", path]),
            Job(f"{label}/homology-GF2", cells, check_mod2,
                argv=["homology", "--coeff", "2", "--complex", path]),
            Job(f"{label}/tor", cells, check_tor,
                argv=["tor", "--complex", path])]


def routes(seed: int, workdir: str) -> list:
    jobs = []
    for i, (label, K) in enumerate(standard_suite(seed)):
        path = _write(workdir, f"K{i:02d}.json", K)
        jobs.extend(_routes_jobs(label, K, path))
    return jobs


# ---------------------------------------------------------------------------
# faces: enumeration, boundary assembly, d o d and JSON emission

def _library_build(path: str) -> dict:
    """Perm(K) from the JSON file, its chain complex and the d o d check."""
    with open(path) as fh:
        K = simplicial.from_json_dict(json.load(fh))
    X = permutohedron.build_perm_complex(K)
    C = homology.complex_from_boundary(X.by_dim, permutohedron.boundary)
    return {"f_vector": X.f_vector(), "dd_zero": C.check_dd_zero()}


def _f_vector_check(f, extra=lambda payload: None):
    def check(payload):
        return _expect("f-vector", payload["f_vector"], f) or extra(payload)
    return check


def faces(seed: int, workdir: str) -> list:
    """The seed picks the edge of the doubled input.  The other inputs are
    full simplices and skeletons, which every relabelling leaves alone."""
    edge = random.Random(seed).sample(range(1, 4), 2)
    full7 = _write(workdir, "full7.json", simplicial.full_simplex(7))
    full6 = _write(workdir, "full6.json", simplicial.full_simplex(6))
    doubled = _write(workdir, "doubled.json", simplicial.from_facets(3, [edge]))

    f7 = f_vector(7, face_counts(7))
    f6 = f_vector(6, face_counts(6))
    # Perm^5 minus the faces holding a minimal nonface {a,c} or {b,c} in a
    # block together with its primed copy: merging those elements leaves
    # 4 (one pair) or 2 (both pairs) elements to partition.
    f4, f2 = face_counts(4), face_counts(2)
    f_doubled = f_vector(6, {p: n - 2 * f4.get(p, 0) + f2.get(p, 0)
                             for p, n in face_counts(6).items()})

    jobs = [
        Job("build-full7", sum(f7), _f_vector_check(
                f7, lambda pl: _expect("faces listed", len(pl["faces"]), sum(f7))),
            argv=["build", "--complex", full7]),
        Job("geometry-full6", sum(f6), lambda pl: (
                _expect("vertices", len(pl["vertices"]), f6[0])
                or _expect("faces", len(pl["faces"]), sum(f6))),
            argv=["geometry", "--complex", full6]),
        Job("build-doubled", sum(f_doubled), _f_vector_check(f_doubled),
            argv=["build", "--doubled", "--complex", doubled]),
    ]
    for name, K in (("full6", simplicial.full_simplex(6)),
                    ("skel6_1", simplicial.skeleton(6, 1)),
                    ("skel6_2", simplicial.skeleton(6, 2))):
        path = _write(workdir, f"lib-{name}.json", K)
        size = K.dim() + 1
        f = f_vector(6, face_counts(6, lambda b, size=size: len(b) <= size))
        jobs.append(Job(f"library-{name}", sum(f), _f_vector_check(
                            f, lambda r: _expect("d o d = 0", r["dd_zero"], True)),
                        call=lambda path=path: _library_build(path)))
    return jobs


# ---------------------------------------------------------------------------
# diagonal: configuration matrices, the extension to lower faces, the cube
# diagonal and the projection checks

def _su_cai_check(m):
    fubini = sum(face_counts(m).values())

    def check(payload):
        return (_expect("su-cai passed", payload["passed"], True)
                or _expect("faces checked", payload["faces_checked"], fubini))
    return check, fubini


def diagonal(seed: int, workdir: str) -> list:
    """The same inputs for every seed: the su-cai checks and the diagonal
    take only m, and skeleton(6,2) is the same under every relabelling."""
    sk62 = _write(workdir, "skel6_2.json", simplicial.skeleton(6, 2))
    image_faces = sum(face_counts(6, lambda b: len(b) <= 3).values())
    terms = 2 * 7 ** 4  # 2 (m + 1)^(m - 2) at m = 6
    su6, faces6 = _su_cai_check(6)
    su5, faces5 = _su_cai_check(5)
    return [
        Job("diagonal-m6", terms,
            lambda pl: _expect("terms", len(pl["terms"]), terms),
            argv=["diagonal", "--m", "6"]),
        Job("su-cai-m6", faces6, su6,
            argv=["verify", "--theorem", "su-cai", "--m", "6"]),
        Job("su-cai-m5", faces5, su5,
            argv=["verify", "--theorem", "su-cai", "--m", "5"]),
        Job("image-skel6_2", image_faces, lambda pl: (
                _expect("image passed", pl["passed"], True)
                or _expect("image cells", pl["image_cells"], pl["expected_cells"])),
            argv=["verify", "--theorem", "image", "--complex", sk62]),
    ]


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of `workload` into `workdir` and return its jobs.
    `faces-diagonal` runs the jobs of both halves, none of which eliminates."""
    if workload == "routes":
        return routes(seed, workdir)
    return faces(seed, workdir) + diagonal(seed, workdir)
