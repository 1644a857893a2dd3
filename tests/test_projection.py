import itertools
import math

from permcomplex import diagonals, projection
from permcomplex.cubes import cell_label, cube_boundary
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
    failing_probes,
    rho_face,
    rho_sign,
    verify_image,
    verify_su_cai,
    walk_su_cai,
)
from permcomplex.simplicial import (
    from_facets,
    full_simplex,
    polygon_boundary,
    random_suite,
    skeleton,
)
from permcomplex.sumatrix import columns_partition, enumerate_configurations, rows_partition

from conftest import _cell_closure, is_snake, matrix, rho_chain, standard_suite


def test_rho_face_vertices():
    # a vertex goes to the corner recording which coordinates sit above
    # their right neighbour in the natural interleaving
    sigma, tau = rho_face(face(3, [1], [2], [3]))
    assert sigma == ()  # dimension len(sigma) = 0
    assert tau == ()


def test_rho_face_dimension_preserved_on_interval_blocks():
    # rho_chain and verify_su_cai rely on this equivalence
    for m in range(1, 6):
        for F in full_permutohedron(m).all():
            assert blocks_are_intervals(F) == (len(rho_face(F)[0]) == m - len(F)), F


def test_rho_face_drops_dimension_on_non_intervals():
    F = face(3, [1, 3], [2])
    assert not blocks_are_intervals(F)
    assert len(rho_face(F)[0]) < face_dim(F)


def test_rho_sign_is_one_on_vertices_and_top():
    for m in (2, 3, 4):
        for F in full_permutohedron(m).all():
            if len(F) == m or len(F) == 1:
                assert rho_sign(F) == 1


def test_rho_sign_known_negative():
    # the only face of Perm^3 with a nontrivial orientation twist
    assert rho_sign(face(4, [3, 4], [1, 2])) == -1
    assert rho_sign(face(4, [1, 2], [3, 4])) == 1


def test_rho_chain_commutes_with_boundaries():
    for m in (2, 3, 4, 5):
        for F in full_permutohedron(m).all():
            lhs = rho_chain(boundary(F))
            rhs = {}
            G = rho_face(F)
            if blocks_are_intervals(F):
                rhs = {c: rho_sign(F) * v for c, v in cube_boundary(G).items()}
            assert lhs == rhs, F


def test_verify_su_cai_small():
    for m in (2, 3, 4):
        report = verify_su_cai(m)
        assert report["passed"], report["mismatches"][:3]


def _reference_verify_su_cai(m):
    """verify_su_cai with every SU term of every face expanded, and the
    terms through a face with a non-interval block dropped one by one."""
    faces = full_permutohedron(m).all()
    images = {}
    for F in faces:
        if blocks_are_intervals(F):
            images[F] = (rho_face(F), rho_sign(F))
        else:
            images[F] = None

    mismatches = []
    for F in faces:
        lhs = {}
        for sign, left, right in diagonals.su_terms(F):
            a, b = images[left], images[right]
            if a and b:
                key = (a[0], b[0])
                lhs[key] = lhs.get(key, 0) + sign * a[1] * b[1]
        c = images[F]
        if c:
            for key, coeff in diagonals.cai_diagonal(c[0]).items():
                lhs[key] = lhs.get(key, 0) - c[1] * coeff
        terms = sorted((cell_label(a), cell_label(b), v)
                       for (a, b), v in lhs.items() if v)
        if terms:
            mismatches.append({
                "face": face_label(F), "dim": m - len(F),
                "terms": [{"left": a, "right": b, "coeff": coeff}
                          for a, b, coeff in terms]})
    return {"m": m, "faces_checked": len(faces), "mismatches": mismatches,
            "passed": not mismatches}


def test_verify_su_cai_matches_the_full_expansion():
    for m in range(1, 6):
        report = verify_su_cai(m)
        assert report["passed"]
        assert report == _reference_verify_su_cai(m)


def test_non_interval_blocks_keep_no_su_term():
    # every term of the factor of a non-interval block holds a non-interval
    # block on one side, so rho (x) rho sends it to 0
    for r in range(2, 7):
        for block in itertools.combinations(range(1, 7), r):
            if not blocks_are_intervals((block,)):
                assert not [t for t in diagonals._block_terms(block)
                            if blocks_are_intervals(t[1]) and blocks_are_intervals(t[2])]


def test_verify_su_cai_matches_the_full_expansion_on_a_wrong_su_sign(monkeypatch):
    # the sign of the top-cell term F(1|2) (x) F(12) flipped where both the
    # full expansion and the kept terms read it, so the factor of every
    # two-element block carries it, for the pruned and the full check
    # alike: the full expansion takes its signs from the walk, through
    # signed_partitions, and kept_top_terms from partition_sign
    real_sign, real_partitions = diagonals.partition_sign, diagonals.signed_partitions

    def wrong(step, rA, cA):
        sign = real_sign(step, rA, cA)
        return -sign if (rA, cA) == (((1, 2),), ((1,), (2,))) else sign

    def flipped(terms):
        return [(-sign if (left, right) == (((1,), (2,)), ((1, 2),)) else sign, left, right)
                for sign, left, right in terms]

    def wrong_partitions(q, p, share):
        return tuple(map(flipped, real_partitions(q, p, share)))

    caches = (diagonals._top_cell_terms, diagonals._block_terms)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(diagonals, "partition_sign", wrong)
    monkeypatch.setattr(diagonals, "signed_partitions", wrong_partitions)
    try:
        report = verify_su_cai(5)
        assert not report["passed"]
        assert report == _reference_verify_su_cai(5)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()


def test_verify_su_cai_names_least_failing_face(monkeypatch):
    # one wrong sign in the cube diagonal of the edge c(u:1,t:-), whose
    # only preimage is F(12|3|4): the report names that face and the one
    # term of lhs - rhs, not both sides in full
    edge = ((1,), ())
    real = diagonals.cai_terms

    def wrong(sigma, tau):
        for left, right, sign in real(sigma, tau):
            flip = (sigma, tau) == edge and left == ((), ())
            yield left, right, -sign if flip else sign

    # verify_su_cai reads the terms, the reference reads them through cai_diagonal
    monkeypatch.setattr(projection, "cai_terms", wrong)
    monkeypatch.setattr(diagonals, "cai_terms", wrong)
    report = verify_su_cai(4)
    assert not report["passed"]
    assert report["faces_checked"] == 75
    assert report["mismatches"] == [{
        "face": "F(12|3|4)", "dim": 1,
        "terms": [{"left": "c(u:-,t:-)", "right": "c(u:1,t:-)", "coeff": 2}]}]
    assert report == _reference_verify_su_cai(4)


def test_walk_su_cai_finds_no_mismatch():
    for m in range(1, 7):
        assert walk_su_cai(m) == []
        assert failing_probes(m) == []


def test_probes_are_one_face_per_interval_block():
    assert projection._probes(4) == [
        ((1,), (2,), (3,), (4,)),
        ((1, 2), (3,), (4,)), ((1,), (2, 3), (4,)), ((1,), (2,), (3, 4)),
        ((1, 2, 3), (4,)), ((1,), (2, 3, 4)),
        ((1, 2, 3, 4),)]
    for m in range(1, 10):
        assert len(projection._probes(m)) == m * (m - 1) // 2 + 1


def test_a_passing_check_walks_no_face_and_builds_each_size_once(monkeypatch):
    sizes = []
    real = projection.kept_top_terms

    def counted(n):
        sizes.append(n)
        return real(n)

    def no_walk(m):
        raise AssertionError("walked")

    monkeypatch.setattr(projection, "kept_top_terms", counted)
    monkeypatch.setattr(projection, "walk_su_cai", no_walk)
    for m in (1, 6, 9):
        sizes.clear()
        report = verify_su_cai(m)
        assert report["passed"] and report["faces_checked"] == projection._ordered_bell(m)
        assert sizes == list(range(1, m + 1))


def _koszul(pairs) -> int:
    """(-1)^(sum of d_j d_k over the pairs j < k with x_j > x_k), for
    (x, d) pairs in order."""
    e = sum(dj * dk for j, (xj, dj) in enumerate(pairs)
            for xk, dk in pairs[j + 1:] if xj > xk)
    return -1 if e % 2 else 1


def _shifted(cell, by):
    return tuple(tuple(i + by for i in part) for part in cell)


def _interval_faces(m):
    return [F for F in full_permutohedron(m).all() if blocks_are_intervals(F)]


def test_rho_of_an_interleaved_term_factors_by_blocks():
    # the first factorisation of the product lemma of verify_su_cai: on an
    # interval face F, rho_face of a kept term puts each block's rho_face in
    # the block's coordinates, with the gap coordinates of F, and rho_sign
    # is the product of the blocks' with the Koszul sign of F's block order
    for m in range(1, 7):
        for F in _interval_faces(m):
            # the gap coordinates i in tau: the block of i + 1 comes first
            gaps = {b[-1] for j, b in enumerate(F)
                    if any(b[-1] + 1 in c for c in F[:j])}
            tops = [diagonals.kept_top_terms(len(b)) for b in F]
            factors = [diagonals._renamed(top, b) for top, b in zip(tops, F)]
            for (sign, left, right), choice in zip(diagonals.interleave(factors),
                                                   itertools.product(*tops)):
                for side, face_of in ((left, 1), (right, 2)):
                    parts = [t[face_of] for t in choice]
                    assert side == tuple(tuple(i + b[0] - 1 for i in block)
                                         for part, b in zip(parts, F) for block in part)
                    cells = [_shifted(rho_face(part), b[0] - 1) for part, b in zip(parts, F)]
                    assert rho_face(side) == (
                        tuple(sorted(i for c in cells for i in c[0])),
                        tuple(sorted({i for c in cells for i in c[1]} | gaps)))
                    degrees = [len(b) - len(part) for part, b in zip(parts, F)]
                    assert rho_sign(side) == (
                        math.prod(map(rho_sign, parts))
                        * _koszul([(b[0], d) for b, d in zip(F, degrees)]))
                # and interleave's sign is the Koszul product in F's order
                ls = [len(b) - len(t[1]) for t, b in zip(choice, F)]
                rs = [len(b) - len(t[2]) for t, b in zip(choice, F)]
                e = sum(ls[j] * rs[k] for j in range(len(F)) for k in range(j))
                assert sign == math.prod(t[0] for t in choice) * (-1) ** e


def test_cai_of_rho_is_the_koszul_product_of_the_blocks():
    # the second factorisation: the Cai terms of rho(F) are the products of
    # one Cai term of each block's cube, in coordinate order, the gap
    # coordinates of tau on both sides
    for m in range(1, 7):
        for F in _interval_faces(m):
            sigma, tau = rho_face(F)
            blocks = sorted(F)
            per_block = [list(diagonals.cai_terms(tuple(range(b[0], b[-1])), ()))
                         for b in blocks]
            expected = {}
            for choice in itertools.product(*per_block):
                sub = tuple(i for (s, _), _, _ in choice for i in s)
                rest = tuple(i for _, (r, _), _ in choice for i in r)
                e = sum(len(choice[j][0][0]) * len(choice[k][1][0])
                        for j in range(len(choice)) for k in range(j))
                sign = math.prod(c for _, _, c in choice) * (-1) ** e
                expected[(sub, tau), (rest, tuple(sorted(sub + tau)))] = sign
            assert diagonals.cai_diagonal((sigma, tau)) == expected, F


def test_a_wrong_kept_sign_fails_the_probes_and_the_walk(monkeypatch):
    # one sign flipped in kept_top_terms(3) and in the same term of the
    # full top-cell diagonal on [3], which the reference reads: every probe
    # of a three-element block fails, and so does the walk
    term = (((1,), (2, 3)), ((3,), (1, 2)))
    real_kept, real_top = projection.kept_top_terms, diagonals._top_cell_terms

    def flipped(terms):
        return tuple((-sign if (left, right) == term else sign, left, right)
                     for sign, left, right in terms)

    def wrong_kept(n):
        return flipped(real_kept(n)) if n == 3 else real_kept(n)

    def wrong_top(n):
        return flipped(real_top(n)) if n == 3 else real_top(n)

    assert term in [(left, right) for _, left, right in real_kept(3)]
    diagonals._block_terms.cache_clear()
    monkeypatch.setattr(projection, "kept_top_terms", wrong_kept)
    monkeypatch.setattr(diagonals, "_top_cell_terms", wrong_top)
    try:
        assert failing_probes(6) == [F for F in projection._probes(6)
                                     if any(len(b) == 3 for b in F)]
        report = verify_su_cai(6)
        assert not report["passed"]
        assert report["mismatches"] == walk_su_cai(6)
        assert report == _reference_verify_su_cai(6)
        first = report["mismatches"][0]
        assert first["dim"] == 2 and first["face"] == "F(1|2|3|456)"
    finally:
        monkeypatch.undo()
        diagonals._block_terms.cache_clear()


def test_a_wrong_cai_sign_at_one_coordinate_fails_the_probes_and_the_walk(monkeypatch):
    # every Cai term whose left cell keeps coordinate 4 as an interval has
    # its sign flipped: at m = 6 every probe whose block holds 4 and 5
    # fails, and the report names F(1|2|3|45|6) first
    real = diagonals.cai_terms

    def wrong(sigma, tau):
        for left, right, sign in real(sigma, tau):
            yield left, right, -sign if 4 in left[0] else sign

    monkeypatch.setattr(projection, "cai_terms", wrong)
    monkeypatch.setattr(diagonals, "cai_terms", wrong)
    assert failing_probes(6) == [F for F in projection._probes(6)
                                 if any({4, 5} <= set(b) for b in F)]
    report = verify_su_cai(6)
    assert not report["passed"]
    assert report["mismatches"] == walk_su_cai(6)
    assert report == _reference_verify_su_cai(6)
    first = report["mismatches"][0]
    assert first["dim"] == 1 and first["face"] == "F(1|2|3|45|6)"


def test_ordered_bell_counts_the_surjections():
    # a face of Perm^{m-1} with k blocks is a surjection of [m] onto [k]:
    # sum over k of k! S(m, k) = sum_k sum_j (-1)^j C(k, j) (k - j)^m
    for m in range(21):
        closed = sum((-1) ** j * math.comb(k, j) * (k - j) ** m
                     for k in range(m + 1) for j in range(k + 1))
        assert projection._ordered_bell(m) == closed, m
    assert projection._ordered_bell(16) == 5315654681981355


def test_L_of_quadrilaterals_and_complete_graph():
    expected = {(), (1,), (2,), (3,), (1, 3)}
    assert set(L_of_K(skeleton(4, 1)).simplices) == expected
    assert set(L_of_K(polygon_boundary([1, 2, 3, 4])).simplices) == expected
    # the crossed quadrilateral leaves only an isolated middle vertex
    assert set(L_of_K(polygon_boundary([1, 3, 2, 4])).simplices) == {(), (2,)}


def test_L_of_full_simplex_is_full():
    L = L_of_K(full_simplex(4))
    assert (1, 2, 3) in L


def test_verify_image_fixtures():
    for K in (skeleton(4, 1), polygon_boundary([1, 2, 3, 4]),
              polygon_boundary([1, 3, 2, 4]), full_simplex(4), full_simplex(3)):
        report = verify_image(K)
        assert report["passed"], report


def test_verify_image_flags_known_example_note():
    report = verify_image(skeleton(4, 1))
    assert report["notes"]  # the documented vertex-image swap


def test_verify_image_reports_missing_cells(monkeypatch):
    # L(skeleton(4, 1)) is {1, 2, 3, 13}; the full simplex on [3] adds the
    # cells on 12, 23 and 123, which no face of Perm(K) reaches
    monkeypatch.setattr(projection, "L_of_K", lambda K: full_simplex(3))
    report = verify_image(skeleton(4, 1))
    assert report["passed"] is False
    assert report["missing"] == ["c(u:12,t:-)", "c(u:12,t:3)", "c(u:123,t:-)",
                                 "c(u:23,t:-)", "c(u:23,t:1)"]
    assert report["extra"] == []
    assert (report["image_cells"], report["expected_cells"]) == (22, 27)


def test_verify_image_reports_extra_cells(monkeypatch):
    # the vertices of [3] alone leave out the two cells on 13, the images
    # of F(12|34) and F(34|12)
    monkeypatch.setattr(projection, "L_of_K", lambda K: skeleton(3, 0))
    report = verify_image(skeleton(4, 1))
    assert report["passed"] is False
    assert report["missing"] == []
    assert report["extra"] == ["c(u:13,t:-)", "c(u:13,t:2)"]
    assert (report["image_cells"], report["expected_cells"]) == (22, 20)


def test_verify_image_random():
    for K in random_suite(seed=3, count=10, max_m=5):
        assert verify_image(K)["passed"]


def test_image_is_closed_under_faces():
    # the lemma of `verify_image`: the image of a face set closed under
    # refinement needs no closure
    complexes = standard_suite() + [skeleton(m, d) for m in range(1, 7) for d in range(m)]
    face_sets = [build_perm_complex(K).all() for K in complexes]
    face_sets += [build_perm_complex_C(K).all()
                  for K in (skeleton(3, 1), from_facets(3, [[1, 2]]))]
    for faces in face_sets:
        image = {rho_face(F) for F in faces}
        assert _cell_closure(image) == image


def test_image_of_faces_not_closed_under_refinement_is_not_closed():
    # Perm^3 without its vertices: the cube vertices (-1, -1, -1) and
    # (1, 1, 1) lie under the images of the edges F(12|3|4) and F(4|3|12),
    # but only the vertices F(1|2|3|4) and F(4|3|2|1) map to them
    faces = [F for F in full_permutohedron(4).all() if len(F) < 4]
    image = {rho_face(F) for F in faces}
    assert _cell_closure(image) != image
    assert _cell_closure(image) - image == {((), ()), ((), (1, 2, 3))}


def test_snake_lemma_both_directions():
    # a configuration matrix is a snake, its entries stepping one cell
    # right or down from (1, 1) to (q, p), exactly when its rows and
    # columns are all intervals, and 2^(n-1) of them have q + p - 1 = n
    for n in range(1, 7):
        snakes = 0
        for q in range(1, n + 1):
            for A, _ in enumerate_configurations(q, n + 1 - q):
                intervals = (blocks_are_intervals(columns_partition(A))
                             and blocks_are_intervals(rows_partition(A)))
                assert is_snake(A) == intervals, A
                snakes += intervals
        assert snakes == 2 ** (n - 1)
    # 1 at (2,1) and 2 at (1,2) share no row or column: not a snake
    assert not is_snake(matrix([[0, 2], [1, 0]]))
