"""Acceptance suite: ten exact-identity criteria, one printed result line
each.  Time budgets are asserted where stated."""

import time

from permcomplex.bar import bar_differential, tor_ranks
from permcomplex.cubes import cube_boundary
from permcomplex.diagonals import (
    cai_diagonal,
    su_diagonal,
    su_top_diagonal,
)
from permcomplex.homology import (
    complex_from_boundary,
    homology,
)
from permcomplex.permutohedron import (
    boundary,
    build_perm_complex,
    build_perm_complex_C,
    face,
    face_dim,
    face_label,
    full_permutohedron,
)
from permcomplex.projection import (
    L_of_K,
    blocks_are_intervals,
    rho_face,
    rho_sign,
    verify_image,
    verify_su_cai,
)
from permcomplex.simplicial import (
    from_facets,
    polygon_boundary,
    skeleton,
)
from permcomplex.sumatrix import (
    columns_partition,
    enumerate_configurations,
    rows_partition,
)

from conftest import (
    accumulate,
    all_cells,
    chain_map_defect,
    cochain_dual,
    cup_whitney_basis,
    is_snake,
    pair,
    rmac_complex,
    standard_suite,
    torus_cup_pairing,
)


def announce(capsys, number, description, passed, elapsed):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:2d}] {description}: {verdict} "
              f"({elapsed:.1f} s)")


def test_criterion_01_boundary_squares_to_zero(capsys):
    t0 = time.time()
    passed = True
    for m in range(1, 8):
        X = full_permutohedron(m)
        C = complex_from_boundary(X.by_dim, boundary)
        passed = passed and C.check_dd_zero()
    elapsed = time.time() - t0
    announce(capsys, 1, "boundary squares to zero on the permutohedron, m <= 7",
             passed and elapsed < 60, elapsed)
    assert passed
    assert elapsed < 60


def test_criterion_02_basis_bijection_intertwines(capsys):
    t0 = time.time()
    failures = []
    for K in standard_suite():
        X = build_perm_complex(K)
        # coboundary of the dual of F: the faces G whose boundary has F
        dual = {F: {} for F in X.all()}
        for G in X.all():
            for F, c in boundary(G).items():
                dual[F][G] = c  # each G once for each F
        for F in X.all():
            if dual[F] != bar_differential(F, K):
                failures.append((K, F))
    elapsed = time.time() - t0
    announce(capsys, 2, "word bijection intertwines the differentials",
             not failures, elapsed)
    assert not failures


def test_criterion_03_tor_matches_cochain_dual(capsys):
    t0 = time.time()
    failures = []
    for K in standard_suite():
        X = build_perm_complex(K)
        C = complex_from_boundary(X.by_dim, boundary)
        t = tor_ranks(K)
        hd = homology(cochain_dual(C))
        for q in range(K.m + 1):
            if (t.betti(q - K.m) != hd.betti(-q)
                    or t.torsion(q - K.m) != hd.torsion(-q)):
                failures.append((K, q))
    elapsed = time.time() - t0
    announce(capsys, 3, "Tor ranks equal dual cohomology under the degree shift",
             not failures, elapsed)
    assert not failures


def canonical_terms(chain):
    return sorted(
        ("+" if c > 0 else "-") + face_label(left) + " (x) " + face_label(right)
        for (left, right), c in chain.items()
        for _ in range(abs(c))
    )


def test_criterion_04_printed_diagonal_expansions(capsys):
    t0 = time.time()
    d2 = canonical_terms(su_diagonal(face(2, [1, 2])))
    expected2 = sorted([
        "+F(12) (x) F(2|1)",
        "+F(1|2) (x) F(12)",
    ])
    d3 = canonical_terms(su_diagonal(face(3, [1, 2, 3])))
    expected3 = sorted([
        "+F(1|2|3) (x) F(123)",
        "+F(123) (x) F(3|2|1)",
        "-F(1|23) (x) F(13|2)",
        "+F(2|13) (x) F(23|1)",
        "-F(13|2) (x) F(3|12)",
        "+F(12|3) (x) F(2|13)",
        "-F(1|23) (x) F(3|12)",
        "+F(12|3) (x) F(23|1)",
    ])
    passed = (d2 == expected2 and len(d2) == 2
              and d3 == expected3 and len(d3) == 8)
    elapsed = time.time() - t0
    announce(capsys, 4, "printed edge and hexagon diagonal expansions",
             passed, elapsed)
    assert d2 == expected2
    assert d3 == expected3


def top_cell_projection_agrees(m):
    F = face(m, range(1, m + 1))
    lhs = accumulate(((rho_face(left), rho_face(right)),
                      sign * rho_sign(left) * rho_sign(right))
                     for (left, right), sign in su_diagonal(F).items()
                     if blocks_are_intervals(left) and blocks_are_intervals(right))
    rhs = {key: rho_sign(F) * c for key, c in cai_diagonal(rho_face(F)).items()}
    return lhs == rhs


def test_criterion_05_projection_sends_one_diagonal_to_other(capsys):
    t0 = time.time()
    passed = all(verify_su_cai(m)["passed"] for m in (2, 3, 4, 5, 6))
    passed = passed and top_cell_projection_agrees(5)
    elapsed = time.time() - t0
    announce(capsys, 5, "projection carries the permutohedral diagonal "
             "to the cubical one", passed and elapsed < 120, elapsed)
    assert passed
    assert elapsed < 120


def test_criterion_06_chain_maps_and_duality(capsys):
    t0 = time.time()
    passed = True
    for m in (2, 3, 4, 5):
        for F in full_permutohedron(m).all():
            if chain_map_defect(F, su_diagonal, boundary, face_dim):
                passed = False
    for m in (1, 2, 3, 4):
        for c in all_cells(m):
            if chain_map_defect(c, cai_diagonal, cube_boundary, lambda c: len(c[0])):
                passed = False
    # duality <a cup b, c> = <a (x) b, diagonal(c)> on the cube, m <= 3
    for m in (1, 2, 3):
        cells = all_cells(m)
        cochains = cells  # u^sigma t^tau is named by the cell (sigma, tau)
        for a in cochains:
            for b in cochains:
                for c in cells:
                    product = cup_whitney_basis(a, b)
                    lhs = 0
                    if product is not None:
                        sign, ab = product
                        lhs = sign * pair(ab, c)
                    rhs = sum(coeff * pair(a, x) * pair(b, y)
                              for (x, y), coeff in cai_diagonal(c).items())
                    if lhs != rhs:
                        passed = False
    elapsed = time.time() - t0
    announce(capsys, 6, "both diagonals are chain maps and the cup "
             "product is dual to the cubical one", passed, elapsed)
    assert passed


def test_criterion_07_image_fixtures(capsys):
    t0 = time.time()
    K1 = skeleton(4, 1)
    K2 = polygon_boundary([1, 2, 3, 4])
    K3 = polygon_boundary([1, 3, 2, 4])
    expected12 = {(), (1,), (2,), (3,), (1, 3)}

    def nonempty(L):
        return {s for s in L.simplices if s}

    passed = (nonempty(L_of_K(K1)) == expected12 - {()}
              and nonempty(L_of_K(K2)) == expected12 - {()}
              and nonempty(L_of_K(K3)) == {(2,)})
    reports = [verify_image(K) for K in (K1, K2, K3)]
    passed = passed and all(r["passed"] for r in reports)
    # the note concerns F(13|24)/F(24|13), present in K1 and K3 only
    flagged = bool(reports[0]["notes"]) and bool(reports[2]["notes"])
    elapsed = time.time() - t0
    announce(capsys, 7, "quadrilateral image fixtures (vertex-image swap "
             "reported as a note)", passed and flagged, elapsed)
    assert passed
    assert flagged


def test_criterion_08_complete_graph_complex(capsys):
    t0 = time.time()
    X = build_perm_complex(skeleton(4, 1))
    small_blocks = {F for F in full_permutohedron(4).all()
                    if all(len(b) <= 2 for b in F)}
    passed = set(X.all()) == small_blocks
    passed = passed and X.f_vector() == [24, 36, 6]
    h = homology(complex_from_boundary(X.by_dim, boundary))
    passed = passed and h.betti_vector() == [1, 7]
    passed = passed and X.euler_characteristic() == -6 == 1 - 7
    elapsed = time.time() - t0
    announce(capsys, 8, "complete-graph complex: faces, f-vector (24, 36, 6), "
             "Betti (1, 7)", passed, elapsed)
    assert passed


def test_criterion_09_known_homotopy_oracles(capsys):
    t0 = time.time()
    passed = True

    def betti_of(X):
        return homology(complex_from_boundary(X.by_dim, boundary)).betti_vector()

    # three bare points: six contractible hexagon vertices
    passed = passed and betti_of(
        build_perm_complex(from_facets(3, [[1], [2], [3]]))) == [6]
    # boundary of the triangle: the full hexagon circle
    passed = passed and betti_of(
        build_perm_complex(polygon_boundary([1, 2, 3]))) == [1, 1]
    # doubled two-point complex: also a circle
    passed = passed and betti_of(build_perm_complex_C(from_facets(2, []))) == [1, 1]
    # torus: Betti (1, 2, 1) and a unimodular cup pairing
    h = homology(rmac_complex(polygon_boundary([1, 2, 3, 4])))
    passed = passed and h.betti_vector() == [1, 2, 1]
    M = torus_cup_pairing()
    passed = passed and M[0][0] * M[1][1] - M[0][1] * M[1][0] in (1, -1)
    elapsed = time.time() - t0
    announce(capsys, 9, "known-homotopy oracles (points, circles, torus cup "
             "pairing)", passed, elapsed)
    assert passed


def test_criterion_10_snakes(capsys):
    t0 = time.time()
    passed = True
    for m in (2, 3, 4, 5):
        preserved = 0
        for q in range(1, m + 1):
            for A, _ in enumerate_configurations(q, m + 1 - q):
                if (blocks_are_intervals(columns_partition(A))
                        and blocks_are_intervals(rows_partition(A))):
                    preserved += 1
                    # continuous: 1, ..., m step one cell right or down
                    # from (1, 1) to (q, p), so the snake is all of A
                    if not is_snake(A):
                        passed = False
        if preserved != 2 ** (m - 1):
            passed = False
    elapsed = time.time() - t0
    announce(capsys, 10, "dimension-preserving configuration matrices carry "
             "exactly one continuous snake", passed, elapsed)
    assert passed
