import json

import numpy as np
import pytest

from specfactor import corpus, linalg, poly
from specfactor.factor2d import cesaro_smooth, inverse_cesaro, lift_to_block, unlift_factor
from specfactor.poly import (
    MatrixAnalyticPoly1,
    MatrixAnalyticPoly2,
    MatrixLaurentPoly1,
    MatrixLaurentPoly2,
    PolyFormatError,
    adjoint_product,
    adjoint_product_list2,
    block_toeplitz,
    circle_grid,
    circle_values,
    eval1,
    eval1_grid,
    eval2,
    eval2_grid,
    load_poly,
    poly_from_json,
    poly_to_json,
    save_poly,
    toeplitz_psd_check,
)
from reference import laurent_stack, toeplitz_entries

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def scalar_laurent(causal):
    return MatrixLaurentPoly1.from_causal(1, {k: [[v]] for k, v in causal.items()})


def scalar_analytic(coeffs):
    return MatrixAnalyticPoly1([np.array([[c]]) for c in coeffs])


class TestLaurentConstruction:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetry"):
            MatrixLaurentPoly1(1, {1: [[1.0]]})

    def test_symmetry_canonicalized(self):
        q = MatrixLaurentPoly1(2, {0: np.eye(2), 1: E12, -1: E12.conj().T})
        np.testing.assert_array_equal(q.coeff(-1), q.coeff(1).conj().T)

    def test_degree_is_tight(self):
        q = MatrixLaurentPoly1(1, {0: [[1.0]], 2: [[0.0]], -2: [[0.0]]})
        assert q.degree == 0

    def test_two_variable_symmetry(self):
        with pytest.raises(ValueError, match="symmetry"):
            MatrixLaurentPoly2(1, {(1, 1): [[1.0]], (-1, -1): [[2.0]]})

    def test_two_variable_origin_is_its_own_mirror(self):
        with pytest.raises(ValueError, match="symmetry"):
            MatrixLaurentPoly2(2, {(0, 0): E12})

    def test_pair_order_is_immaterial(self):
        c1, c2 = E12 + 0.5j * np.eye(2), 2.0 * E12.T
        pos_first = MatrixLaurentPoly1(
            2, {0: np.eye(2), 1: c1, -1: c1.conj().T, 2: c2, -2: c2.T}
        )
        neg_first = MatrixLaurentPoly1(
            2, {-2: c2.T, -1: c1.conj().T, 0: np.eye(2), 2: c2, 1: c1}
        )
        assert list(pos_first.coeffs) == list(neg_first.coeffs) == [0, 1, -1, 2, -2]
        for k, c in pos_first.coeffs.items():
            assert np.array_equal(c, neg_first.coeffs[k])

    def test_two_variable_from_causal_rejects_a_mirror_pair(self):
        with pytest.raises(ValueError, match=r"both \(1, 0\) and its mirror \(-1, 0\)"):
            MatrixLaurentPoly2.from_causal(1, {(1, 0): [[1.0]], (-1, 0): [[2.0]]})


class TestLaurentBox:
    """Both Laurent kinds are canonicalized in one array pass over a box
    centred on the origin; these pin what that pass keeps of the old
    pair-by-pair walk."""

    def test_two_variable_listing_order(self):
        rng = np.random.default_rng(60)
        a, b, e = (corpus.disk_uniform(rng, (2, 2)) for _ in range(3))
        tiny = 1e-14 * E12  # its absent mirror is within the symmetry tolerance
        q = MatrixLaurentPoly2(2, {
            (1, 0): a, (0, 0): np.zeros((2, 2)), (2, -1): b.conj().T, (-1, 0): a.conj().T,
            (-2, 1): b, (0, 1): tiny, (1, 1): np.zeros((2, 2)), (-1, -1): np.zeros((2, 2)),
        })
        # index order, j then k, whatever the input's order; zero pairs
        # dropped, and a zero Q_00 last
        assert list(q.coeffs) == [(-2, 1), (-1, 0), (0, -1), (0, 1), (1, 0), (2, -1), (0, 0)]
        h = a + a.conj().T
        q = MatrixLaurentPoly2(2, {(1, 1): e, (0, 0): h, (-1, -1): e.conj().T})
        assert list(q.coeffs) == [(-1, -1), (0, 0), (1, 1)]
        q = MatrixLaurentPoly2(
            2, {(0, 1): e, (0, -1): e.conj().T, (0, 0): h, (2, 0): b, (-2, 0): b.conj().T}
        )
        assert list(q.coeffs) == [(-2, 0), (0, -1), (0, 0), (0, 1), (2, 0)]
        q = MatrixLaurentPoly2(2, {(1, 2): e, (-1, -2): e.conj().T})
        assert list(q.coeffs) == [(-1, -2), (1, 2), (0, 0)]
        assert not q.coeffs[(0, 0)].any()

    @pytest.mark.parametrize(
        "cls, coeffs, message",
        [
            # the first offender i >= 0 in index order, whichever side is given
            (MatrixLaurentPoly1, {1: [[1.0]], -1: [[2.0]]},
             "index 1: max|Q_-1 - Q_1*| = 1.000e+00 exceeds 2.000e-12"),
            (MatrixLaurentPoly1, {-2: [[1.0]], 2: [[3.0]], -1: [[1.0]], 0: [[1.0]]},
             "index 1: max|Q_-1 - Q_1*| = 1.000e+00 exceeds 3.000e-12"),
            (MatrixLaurentPoly1, {0: [[1j]], 1: [[2.0]]},
             "index 0: max|Q_0 - Q_0*| = 2.000e+00 exceeds 2.000e-12"),
            # two variables: lexicographically, as plain ints
            (MatrixLaurentPoly2, {(0, 0): [[1.0]], (-1, -1): [[3.0]], (1, 1): [[1.0]]},
             "index (1, 1): max|Q_(-1, -1) - Q_(1, 1)*| = 2.000e+00 exceeds 3.000e-12"),
            (MatrixLaurentPoly2, {(np.int64(1), np.int64(1)): [[1.0]], (2, 0): [[4.0]]},
             "index (1, 1): max|Q_(-1, -1) - Q_(1, 1)*| = 1.000e+00 exceeds 4.000e-12"),
        ],
    )
    def test_symmetry_message_names_the_first_offender(self, cls, coeffs, message):
        with pytest.raises(ValueError) as info:
            cls(1, coeffs)
        assert str(info.value) == "coefficient symmetry violated at " + message

    def test_mirror_is_the_exact_adjoint_of_the_nonnegative_index(self):
        # Real blocks given at both indices, the negative one first: the
        # mirror of the lexicographically non-negative index is its adjoint
        # bit for bit, signed zeros included.
        q = MatrixLaurentPoly1(1, {-1: [[1.0]], 0: [[2.0]], 1: [[1.0]]})
        assert not np.signbit(q.coeff(1).imag) and np.signbit(q.coeff(-1).imag)
        for i in ((1, 0), (0, 1), (1, -1)):
            m = (-i[0], -i[1])
            q = MatrixLaurentPoly2(1, {m: [[1.0]], (0, 0): [[2.0]], i: [[1.0]]})
            assert not np.signbit(q.coeff(*i).imag) and np.signbit(q.coeff(*m).imag)

    def test_one_variable_coeffs_are_read_only(self):
        q = MatrixLaurentPoly1.from_causal(1, {0: [[2.0]], 1: [[0.5]]})
        with pytest.raises(TypeError):
            q.coeffs[0] = np.array([[100.0]])
        with pytest.raises(ValueError, match="read-only"):
            q.coeffs[0][0, 0] = 100.0
        assert eval1(q, 1)[0, 0] == 3.0 and q.stack[2, 0, 0] == 2.0

    def test_two_variable_dense_is_read_only_and_shared(self):
        q = corpus.sos_instance2(np.random.default_rng(61), 2, 1, 2)
        assert q.dense.shape == (3, 5, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            q.dense[1, 2, 0, 0] = 0.0
        with pytest.raises(TypeError):
            q.coeffs[(0, 0)] = np.zeros((2, 2))
        for (j, k), c in q.coeffs.items():
            assert np.shares_memory(c, q.dense) and np.shares_memory(q.coeff(j, k), q.dense)
            assert c.tobytes() == q.dense[j + 1, k + 2].tobytes()
        assert not q.coeff(2, 0).any() and not q.coeff(0, -3).any()

    def test_one_variable_coeffs_are_views_of_one_array(self):
        c2 = E12 + 0.5j * np.eye(2)
        q = MatrixLaurentPoly1(2, {2: c2, 0: np.eye(2), -2: c2.conj().T})
        assert list(q.coeffs) == [0, 1, -1, 2, -2]
        assert len({id(c.base) for c in q.coeffs.values()}) == 1
        assert not q.coeffs[1].any() and not q.coeffs[-1].any()


class TestOneStorage:
    """All four kinds keep their coefficients in one base: its coeff reads
    the box at origin + index, its repr names the kind's shape and degrees."""

    @staticmethod
    def kinds():
        rng = np.random.default_rng(62)
        return [
            (corpus.ridged_instance(rng, 2, 2)[0], "MatrixLaurentPoly1(shape=(2,2), degrees=(2))"),
            (MatrixAnalyticPoly1([corpus.disk_uniform(rng, (3, 2)) for _ in range(3)]),
             "MatrixAnalyticPoly1(shape=(3,2), degrees=(2))"),
            (corpus.sos_instance2(rng, 2, 1, 2), "MatrixLaurentPoly2(shape=(2,2), degrees=(1,2))"),
            (MatrixAnalyticPoly2(3, 2, {(0, 1): corpus.disk_uniform(rng, (3, 2)),
                                        (2, 0): corpus.disk_uniform(rng, (3, 2))}),
             "MatrixAnalyticPoly2(shape=(3,2), degrees=(2,1))"),
        ]

    @pytest.mark.parametrize("i", range(4))
    def test_coeff_and_repr(self, i):
        p, text = self.kinds()[i]
        laurent = isinstance(p, (MatrixLaurentPoly1, MatrixLaurentPoly2))
        tops = (p.degree,) if hasattr(p, "degree") else (p.deg1, p.deg2)
        spans = [range(-t - 2 if laurent else -2, t + 3) for t in tops]
        for index in np.ndindex(*map(len, spans)):
            index = tuple(int(s[n]) for s, n in zip(spans, index))
            c = p.coeff(*index)
            if all((-t if laurent else 0) <= n <= t for n, t in zip(index, tops)):
                assert np.shares_memory(c, p.dense)
                at = tuple(n + t if laurent else n for n, t in zip(index, tops))
                assert c.tobytes() == p.dense[at].tobytes()
            else:
                assert c.shape == (p.rows, p.cols) and not c.any()
                assert c.flags.writeable and not np.shares_memory(c, p.dense)
        if isinstance(p, MatrixLaurentPoly1):  # the zero slabs are not coefficients
            for k in (p.degree + 1, -p.degree - 1):
                assert p.coeff(k).flags.writeable and not np.shares_memory(p.coeff(k), p.stack)
        with pytest.raises(TypeError, match="coeff takes"):
            p.coeff(*(0,) * (len(tops) + 1))
        with pytest.raises(TypeError, match="coeff takes"):
            p.coeff()
        assert repr(p) == text


def box_of(coeffs, size, deg):
    # A centred box holding each key's block at deg + key.
    box = np.zeros(tuple(2 * d + 1 for d in deg) + (size, size), dtype=complex)
    for i, c in coeffs.items():
        box[tuple(np.add(i, deg))] = c
    return box


def one_variable_box(coeffs, size):
    # Every index -d..d as the box constructor takes them, and as a dict.
    d = max(abs(k) for k in coeffs)
    box = np.array([coeffs.get(k, np.zeros((size, size))) for k in range(-d, d + 1)], complex)
    return box, {k: box[d + k].copy() for k in range(-d, d + 1)}


def assert_same_laurent(a, b):
    assert (type(a), a.size, a.scale) == (type(b), b.size, b.scale)
    assert list(a.coeffs) == list(b.coeffs)
    for i, c in a.coeffs.items():
        assert c.tobytes() == b.coeffs[i].tobytes()
    if isinstance(a, MatrixLaurentPoly2):
        assert (a.deg1, a.deg2, a.dense.tobytes()) == (b.deg1, b.deg2, b.dense.tobytes())
    else:
        assert a.degree == b.degree


class TestLaurentBoxConstructors:
    """The private box constructors of both Laurent kinds go through the
    dict constructors' canonicalizer: an exactly self-adjoint box skips the
    tolerance test, any other box takes it, and both give the dict path's
    bytes, listing order and messages."""

    def sos(self, seed):
        q = corpus.sos_instance2(np.random.default_rng(seed), 2, 1, 2)
        return dict(q.coeffs), (q.deg1, q.deg2)

    def test_exact_box_matches_the_dict_path(self):
        coeffs, deg = self.sos(90)
        q = MatrixLaurentPoly2._from_box(box_of(coeffs, 2, deg))
        assert_same_laurent(q, MatrixLaurentPoly2(2, coeffs))
        p = corpus.ridged_instance(np.random.default_rng(91), 2, 3)[0]
        box, coeffs = one_variable_box(p.coeffs, 2)
        assert_same_laurent(MatrixLaurentPoly1._from_box(box), MatrixLaurentPoly1(2, coeffs))

    def test_one_ulp_off_takes_the_tolerance_test(self, monkeypatch):
        coeffs, deg = self.sos(92)
        coeffs[(-1, -2)] = off = coeffs[(-1, -2)].copy()
        off.real[0, 1] = np.nextafter(off.real[0, 1], np.inf)
        q = MatrixLaurentPoly2._from_box(box_of(coeffs, 2, deg))
        assert_same_laurent(q, MatrixLaurentPoly2(2, coeffs))
        assert q.coeff(-1, -2).tobytes() == q.coeff(1, 2).conj().T.tobytes()
        p = corpus.ridged_instance(np.random.default_rng(93), 1, 2)[0]
        box, coeffs = one_variable_box(p.coeffs, 1)
        box.real[0, 0, 0] = coeffs[-2].real[0, 0] = np.nextafter(box.real[0, 0, 0], -np.inf)
        p_box = MatrixLaurentPoly1._from_box(box.copy())
        assert_same_laurent(p_box, MatrixLaurentPoly1(1, coeffs))
        # with no tolerance left, only an exactly self-adjoint box passes
        monkeypatch.setattr(poly, "SYMMETRY_TOL", 0.0)
        with pytest.raises(ValueError, match="index 2: max"):
            MatrixLaurentPoly1._from_box(box.copy())
        MatrixLaurentPoly1._from_box(one_variable_box(p.coeffs, 1)[0])

    def test_over_tolerance_raises_the_dict_message(self):
        coeffs, deg = self.sos(94)
        coeffs[(0, -1)] = coeffs[(0, -1)] + 1e-6
        with pytest.raises(ValueError) as dict_path:
            MatrixLaurentPoly2(2, coeffs)
        with pytest.raises(ValueError) as box_path:
            MatrixLaurentPoly2._from_box(box_of(coeffs, 2, deg))
        assert str(box_path.value) == str(dict_path.value)
        assert "coefficient symmetry violated at index (0, 1)" in str(box_path.value)
        box, coeffs = one_variable_box({0: [[2.0]], 1: [[1.0]], -1: [[1.5]]}, 1)
        with pytest.raises(ValueError) as dict_path:
            MatrixLaurentPoly1(1, coeffs)
        with pytest.raises(ValueError) as box_path:
            MatrixLaurentPoly1._from_box(box)
        assert str(box_path.value) == str(dict_path.value)
        assert str(box_path.value).startswith("coefficient symmetry violated at index 1:")

    def test_zero_pairs_are_dropped_and_trimmed(self):
        coeffs, deg = self.sos(95)
        coeffs[(1, 2)] = coeffs[(-1, -2)] = np.zeros((2, 2))  # listed, zero
        coeffs[(0, 0)] = -0.0 * coeffs[(0, 0)]
        wide = (deg[0] + 1, deg[1] + 2)  # a ring of absent zero blocks
        q = MatrixLaurentPoly2._from_box(box_of(coeffs, 2, wide))
        assert_same_laurent(q, MatrixLaurentPoly2(2, coeffs))
        assert (q.deg1, q.deg2) == deg and (1, 2) not in q.coeffs
        box, coeffs = one_variable_box({0: [[2.0]], 1: [[0.0]], -1: [[-0.0]], 3: [[0.0]]}, 1)
        p = MatrixLaurentPoly1._from_box(box)
        assert_same_laurent(p, MatrixLaurentPoly1(1, coeffs))
        assert p.degree == 0 and not np.signbit(p.coeff(-1).view(float)).any()

    def test_entries_near_the_largest_double_do_not_overflow(self):
        # Each term of a pair is halved before the two are added: Q_0 and
        # the pair Q_1, Q_-1 sum past the largest double, and must not.
        big = 1.7e308
        one = {0: [[big]], 1: [[-big + 1e307j]], -1: [[-big - 1e307j]]}
        box, coeffs = one_variable_box(one, 1)
        p = MatrixLaurentPoly1._from_box(box)
        assert_same_laurent(p, MatrixLaurentPoly1(1, coeffs))
        assert p.coeff(0)[0, 0] == big and p.coeff(-1)[0, 0] == -big - 1e307j
        assert p.scale == abs(-big + 1e307j)
        herm = np.array([[big, -big + 1e307j], [-big - 1e307j, big / 4]])
        two = {(0, 0): herm, (1, -1): herm / 2, (-1, 1): herm.conj().T / 2}
        q = MatrixLaurentPoly2._from_box(box_of(two, 2, (1, 1)))
        assert_same_laurent(q, MatrixLaurentPoly2(2, two))
        assert q.coeff(0, 0).tobytes() == herm.tobytes()
        assert np.isfinite(q.dense).all() and q.scale == abs(herm[0, 1])


def one_variable_order(degree):
    return [s * k for k in range(degree + 1) for s in (1, -1)][1:]  # 0, 1, -1, 2, -2, ...


def reorderings(coeffs, rng):
    # The same coefficient function listed as given, reversed and shuffled.
    keys = list(coeffs)
    orders = [keys, keys[::-1]] + [[keys[i] for i in rng.permutation(len(keys))] for _ in range(3)]
    return [{key: coeffs[key] for key in order} for order in orders]


class TestInputOrder:
    """A coefficient dict is a function on the indices: the order its keys
    are listed in moves no byte, no listing and no message, and every
    two-variable coeffs, built or derived, lists in index order."""

    def laurent_inputs(self, seed):
        rng = np.random.default_rng(seed)
        one = dict(corpus.ridged_instance(rng, 2, 3)[0].coeffs)
        two = dict(corpus.sos_instance2(rng, 2, 2, 2).coeffs)

        def nudged(coeffs):  # within the symmetry tolerance, not exact: every pair is averaged
            return {i: c * (1 + 1e-14 * rng.standard_normal(c.shape)) for i, c in coeffs.items()}

        return rng, [(MatrixLaurentPoly1, nudged(one)), (MatrixLaurentPoly2, nudged(two))]

    @pytest.mark.parametrize("seed", [110, 111, 112])
    def test_laurent_bytes_and_listing(self, seed):
        rng, inputs = self.laurent_inputs(seed)
        for cls, coeffs in inputs:
            qs = [cls(2, c) for c in reorderings(coeffs, rng)]
            for q in qs:
                assert_same_laurent(q, qs[0])
                if cls is MatrixLaurentPoly1:
                    assert q.stack.tobytes() == qs[0].stack.tobytes()
                    assert list(q.coeffs) == one_variable_order(q.degree)
                else:
                    assert list(q.coeffs) == sorted(q.coeffs)

    @pytest.mark.parametrize("seed", [113, 114, 115])
    def test_laurent_symmetry_messages(self, seed):
        rng, inputs = self.laurent_inputs(seed)
        for cls, coeffs in inputs:
            keys = [i for i in coeffs if np.any(i)]  # blocks off by more than the tolerance
            for i in (keys[0], keys[1], keys[-1]):
                coeffs[i] = coeffs[i] + 1e-6j
            messages = set()
            for c in reorderings(coeffs, rng):
                with pytest.raises(ValueError, match="symmetry violated") as info:
                    cls(2, c)
                messages.add(str(info.value))
            assert len(messages) == 1

    @pytest.mark.parametrize("seed", [116, 117, 118])
    def test_analytic_bytes_and_listing(self, seed):
        rng = np.random.default_rng(seed)
        keys = {(int(j), int(k)) for j, k in rng.integers(0, 4, size=(8, 2))}
        coeffs = {key: corpus.disk_uniform(rng, (2, 3)) for key in keys}
        ps = [MatrixAnalyticPoly2(2, 3, c) for c in reorderings(coeffs, rng)]
        for p in ps:
            assert p.dense.tobytes() == ps[0].dense.tobytes()
            assert list(p.coeffs) == sorted(coeffs)

    def test_derived_polynomials_list_in_index_order(self):
        rng = np.random.default_rng(119)
        q = corpus.sos_instance2(rng, 2, 1, 2)
        for out in (cesaro_smooth(q, 3), inverse_cesaro(q, 3)):
            assert list(out.coeffs) == sorted(out.coeffs)
        psi = lift_to_block(q, 3)
        assert list(psi.coeffs) == one_variable_order(psi.degree)
        blocks = [rng.standard_normal((8, 8)) * (rng.random((8, 8)) < 0.5) for _ in range(3)]
        for f in unlift_factor(MatrixAnalyticPoly1(blocks), 2, 3):
            assert list(f.coeffs) == sorted(f.coeffs)


class TestEval1:
    def test_scalar_at_one(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        assert eval1(q, 1.0)[0, 0] == pytest.approx(9.0)

    def test_scalar_at_i(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        assert eval1(q, 1j)[0, 0] == pytest.approx(5.0, abs=1e-13)

    def test_constant_identity(self):
        q = MatrixLaurentPoly1.from_causal(2, {0: np.eye(2)})
        np.testing.assert_allclose(eval1(q, np.exp(0.3j)), np.eye(2), atol=1e-14)

    def test_rejects_off_circle_laurent(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        with pytest.raises(ValueError, match="unit circle"):
            eval1(q, 0.5)

    def test_analytic_inside_disk(self):
        p = scalar_analytic([1.0, 2.0])
        assert eval1(p, 0.5)[0, 0] == pytest.approx(2.0)

    def test_hermitian_on_circle(self):
        rng = np.random.default_rng(3)
        p = MatrixAnalyticPoly1(
            [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        )
        q = adjoint_product(p)
        z = np.exp(2j * np.pi * 0.1234)
        v = eval1(q, z)
        assert np.max(np.abs(v - v.conj().T)) <= 1e-10 * q.scale


class TestEval2:
    def test_at_minus_one_pair(self):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[5.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        assert eval2(q, -1.0, -1.0)[0, 0] == pytest.approx(1.0)
        assert eval2(q, 1.0, 1.0)[0, 0] == pytest.approx(9.0)

    def test_constant(self):
        q = MatrixLaurentPoly2.from_causal(2, {(0, 0): np.diag([1.0, 2.0])})
        np.testing.assert_allclose(
            eval2(q, np.exp(0.4j), np.exp(-1.1j)), np.diag([1.0, 2.0]), atol=1e-14
        )


def unit_points(rng, n):
    return np.exp(2j * np.pi * rng.uniform(0, 1, size=n))


def eval2_reference(p, zs1, zs2):
    # Per-term sum at each point in plain Python complex arithmetic.
    out = np.zeros((len(zs1), len(zs2)) + p.coeff(0, 0).shape, dtype=complex)
    for a, z1 in enumerate(zs1):
        for b, z2 in enumerate(zs2):
            for (j, k), c in p.coeffs.items():
                out[a, b] += complex(z1) ** j * complex(z2) ** k * c
    return out


def coeff_l1(p):
    return sum(float(np.max(np.abs(c))) for c in p.coeffs.values())


class TestEval2Grid:
    def test_laurent_with_negative_indices_in_both_variables(self):
        rng = np.random.default_rng(31)
        q = corpus.sos_instance2(rng, 2, 2, 3)
        assert min(j for j, _ in q.coeffs) == -2 and min(k for _, k in q.coeffs) == -3
        zs1, zs2 = unit_points(rng, 7), unit_points(rng, 5)
        got = eval2_grid(q, zs1, zs2)
        assert got.shape == (7, 5, 2, 2)
        ref = eval2_reference(q, zs1, zs2)
        assert np.max(np.abs(got - ref)) <= 1e-14 * coeff_l1(q)

    def test_rectangular_analytic_coefficients(self):
        rng = np.random.default_rng(32)
        coeffs = {(j, k): corpus.disk_uniform(rng, (2, 3)) for j in (1, 3) for k in (0, 2)}
        p = MatrixAnalyticPoly2(2, 3, coeffs)
        # analytic input accepts points off the circle
        zs1 = np.concatenate([unit_points(rng, 4), 0.5 * unit_points(rng, 2)])
        zs2 = unit_points(rng, 3)
        got = eval2_grid(p, zs1, zs2)
        assert got.shape == (6, 3, 2, 3)
        assert np.max(np.abs(got - eval2_reference(p, zs1, zs2))) <= 1e-14 * coeff_l1(p)

    def test_zero_polynomial(self):
        p = MatrixAnalyticPoly2(2, 3, {(1, 2): np.zeros((2, 3))})
        assert not p.coeffs
        got = eval2_grid(p, circle_grid(3), circle_grid(2))
        np.testing.assert_array_equal(got, np.zeros((8, 4, 2, 3)))

    def test_one_point_grid_agrees_with_eval2(self):
        rng = np.random.default_rng(33)
        q = corpus.sos_instance2(rng, 2, 1, 2)
        for z1, z2 in zip(unit_points(rng, 3), unit_points(rng, 3)):
            got = eval2_grid(q, [z1], [z2])
            assert got.shape == (1, 1, 2, 2)
            np.testing.assert_array_equal(eval2(q, z1, z2), got[0, 0])
            ref = eval2_reference(q, [z1], [z2])[0, 0]
            assert np.max(np.abs(got[0, 0] - ref)) <= 1e-14 * coeff_l1(q)


    def test_grid_powers_are_read_off_the_grid(self):
        # On circle_grid(g), given as g, z_t^k is the grid point t k mod 2^g:
        # z^320 on the 64-point grid within 4 eps of exp(2 pi i (320 t mod 64)
        # / 64), where the complex power misses by about 2.5e-13.
        t, eps = np.arange(64), np.finfo(float).eps
        for k in (320, -320, 17, 0):
            exact = np.exp(2j * np.pi * ((t * k) % 64) / 64)
            assert np.max(np.abs(poly._vandermonde(6, k, k)[:, 0] - exact)) <= 4 * eps
        z320 = MatrixAnalyticPoly2(1, 1, {(0, 320): [[1.0]]})
        assert np.max(np.abs(eval2_grid(z320, 3, 6) - 1.0)) <= 4 * eps  # 320 t = 0 mod 64
        assert np.max(np.abs(circle_grid(6) ** 320 - 1.0)) > 1e-13

    def test_grid_given_by_size_agrees_with_its_points(self):
        q = corpus.sos_instance2(np.random.default_rng(34), 2, 2, 3)
        got = eval2_grid(q, 4, 3)
        assert got.shape == (16, 8, 2, 2)
        want = eval2_grid(q, circle_grid(4), circle_grid(3))
        assert np.max(np.abs(got - want)) <= 1e-14 * coeff_l1(q)


def coeff_list(p):
    # (coefficient stack, lowest index) of a one-variable polynomial
    if isinstance(p, MatrixLaurentPoly1):
        return [p.coeff(k) for k in range(-p.degree, p.degree + 1)], -p.degree
    return p.coeffs, 0


class TestCircleValues:
    def test_matches_eval1_grid(self):
        rng = np.random.default_rng(34)
        laurent, _ = corpus.ridged_instance(rng, 3, 4)
        square = corpus.random_analytic1(rng, 2, 5)
        rect = MatrixAnalyticPoly1([corpus.disk_uniform(rng, (2, 3)) for _ in range(4)])
        for p in (laurent, square, rect):
            stack, lo = coeff_list(p)
            scale = sum(float(np.max(np.abs(c))) for c in stack)
            for g in (3, 6, 9):
                got = circle_values(stack, lo, g)
                ref = eval1_grid(p, circle_grid(g))
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    def test_folds_degrees_past_the_grid_size(self):
        rng = np.random.default_rng(35)
        p = corpus.random_analytic1(rng, 2, 20)
        q = adjoint_product(corpus.random_analytic1(rng, 1, 11))
        for poly in (p, q):  # 21 and 23 coefficients on 8 points
            stack, lo = coeff_list(poly)
            zs = circle_grid(3)
            ref = [sum(complex(z) ** (lo + i) * c for i, c in enumerate(stack)) for z in zs]
            scale = sum(float(np.max(np.abs(c))) for c in stack)
            assert np.max(np.abs(circle_values(stack, lo, 3) - ref)) <= 1e-13 * scale

    def test_high_powers_are_exact_roots_of_unity(self):
        # numpy's complex power misses z^320 on this grid by 2.5e-13
        t = np.arange(64)
        for k in (16, 100, 320, 321, -321):
            exact = np.exp(2j * np.pi * ((t * k) % 64) / 64)
            got = circle_values([1.0], k, 6)
            assert np.max(np.abs(got - exact)) <= 4 * np.finfo(float).eps


class TestAnalyticPoly2Construction:
    def test_negative_index_named(self):
        with pytest.raises(ValueError, match=r"\(1, -1\) needs indices >= 0"):
            MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]], (1, -1): [[1.0]]})

    def test_wrong_shape_named(self):
        with pytest.raises(ValueError, match=r"coefficient \(2, 0\) has shape \(2, 2\)"):
            MatrixAnalyticPoly2(2, 3, {(0, 1): np.ones((2, 3)), (2, 0): np.ones((2, 2))})

    def test_nan_named(self):
        coeffs = {(0, 0): np.ones((2, 2)), (1, 2): np.array([[1.0, np.nan], [0.0, 1.0]])}
        with pytest.raises(ValueError, match=r"coefficient \(1, 2\) contains NaN"):
            MatrixAnalyticPoly2(2, 2, coeffs)
        coeffs[(1, 2)] = np.array([[np.inf, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"coefficient \(1, 2\) contains NaN or infinite"):
            MatrixAnalyticPoly2(2, 2, coeffs)

    def test_zero_blocks_dropped_and_scale_kept(self):
        p = MatrixAnalyticPoly2(
            1, 2, {(3, 0): np.zeros((1, 2)), (0, 1): [[1.0, -4.0j]], (1, 0): [[2.0, 0.0]]}
        )
        assert list(p.coeffs) == [(0, 1), (1, 0)]
        assert (p.deg1, p.deg2, p.scale) == (1, 1, 4.0)
        empty = MatrixAnalyticPoly2(2, 2, {})
        assert (empty.coeffs, empty.deg1, empty.deg2, empty.scale) == ({}, 0, 0, 0.0)

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ({(0, 0): [[1.0]], (2, -1): [[1.0]]}, "analytic coefficient (2, -1) needs indices >= 0"),
            ({(1, 0): [[1.0]], (0, 1): np.ones((2, 1))}, "coefficient (0, 1) has shape (2, 1), expected (1, 1)"),
            # the first non-finite coefficient in dict order, not in index order
            ({(2, 0): [[np.nan]], (0, 1): [[np.inf]]}, "coefficient (2, 0) contains NaN or infinite entries"),
            ({(0, 0): [[1.0]], (3, 1): [[np.inf]], (1, 0): [[np.nan]]}, "coefficient (3, 1) contains NaN or infinite entries"),
        ],
    )
    def test_error_messages(self, coeffs, message):
        with pytest.raises(ValueError) as info:
            MatrixAnalyticPoly2(1, 1, coeffs)
        assert str(info.value) == message

    def test_one_dense_array_listed_in_index_order(self):
        rng = np.random.default_rng(36)
        keys = [(2, 0), (0, 3), (1, 1), (0, 0)]
        given = {key: corpus.disk_uniform(rng, (2, 3)) for key in keys}
        p = MatrixAnalyticPoly2(2, 3, {**given, (1, 3): np.zeros((2, 3))})
        assert p.dense.shape == (3, 4, 2, 3)
        assert list(p.coeffs) == [(0, 0), (0, 3), (1, 1), (2, 0)]
        for key, c in p.coeffs.items():
            assert np.shares_memory(c, p.dense)
            np.testing.assert_array_equal(c, given[key])
            assert np.shares_memory(p.coeff(*key), p.dense)
        np.testing.assert_array_equal(p.coeff(1, 3), np.zeros((2, 3)))
        np.testing.assert_array_equal(p.coeff(3, 0), np.zeros((2, 3)))

    def test_coefficients_are_read_only(self):
        p = MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]], (1, 1): [[2.0]]})
        with pytest.raises(TypeError):
            p.coeffs[(0, 0)] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="read-only"):
            p.coeff(1, 1)[0, 0] = 0.0
        assert p.coeff(1, 1)[0, 0] == 2.0


class TestAnalyticPoly1Construction:
    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([np.eye(2), np.ones((2, 2)), np.ones((1, 2))], "coefficient 2 has shape (1, 2), expected (2, 2)"),
            # the first non-finite coefficient in list order
            ([[[1.0]], [[np.inf]], [[np.nan]]], "coefficient 1 contains NaN or infinite entries"),
            ([[[np.nan, 0.0]], [[1.0, 2.0]]], "coefficient 0 contains NaN or infinite entries"),
        ],
    )
    def test_error_messages(self, coeffs, message):
        with pytest.raises(ValueError) as info:
            MatrixAnalyticPoly1(coeffs)
        assert str(info.value) == message

    def test_one_stacked_copy_and_its_scale(self):
        given = [np.array([[1.0, -3.0j]]), np.array([[0.5, 2.0]]), np.zeros((1, 2))]
        p = MatrixAnalyticPoly1(given)
        assert (p.rows, p.cols, p.degree, p.scale) == (1, 2, 2, 3.0)
        assert len({id(c.base) for c in p.coeffs}) == 1
        assert p.dense.shape == (3, 1, 2) and p.dense.flags.writeable
        for k, (c, g) in enumerate(zip(p.coeffs, given)):
            assert c.dtype == complex and not np.shares_memory(c, g)
            assert np.shares_memory(c, p.dense[k])
            np.testing.assert_array_equal(c, g)
            np.testing.assert_array_equal(p.dense[k], g)
        given[0][0, 1] = 7.0  # the input is copied, not kept
        assert p.coeffs[0][0, 1] == -3.0j
        assert MatrixAnalyticPoly1([np.zeros((2, 2))]).scale == 0.0


class TestAdjointProduct:
    def test_scalar_one_plus_z(self):
        q = adjoint_product(scalar_analytic([1.0, 1.0]))
        assert q.coeff(0)[0, 0] == pytest.approx(2.0)
        assert q.coeff(1)[0, 0] == pytest.approx(1.0)
        assert q.coeff(-1)[0, 0] == pytest.approx(1.0)

    def test_scalar_two_plus_z(self):
        q = adjoint_product(scalar_analytic([2.0, 1.0]))
        assert q.coeff(0)[0, 0] == pytest.approx(5.0)
        assert q.coeff(1)[0, 0] == pytest.approx(2.0)

    def test_matrix_blockwise(self):
        p = MatrixAnalyticPoly1([np.eye(2), E12])
        q = adjoint_product(p)
        np.testing.assert_allclose(q.coeff(0), np.diag([1.0, 2.0]), atol=1e-14)
        np.testing.assert_allclose(q.coeff(1), E12, atol=1e-14)
        np.testing.assert_allclose(q.coeff(-1), E12.conj().T, atol=1e-14)

    def test_eval_consistency_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(0, 4))
            p = MatrixAnalyticPoly1(
                [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(m + 1)]
            )
            q = adjoint_product(p)
            for t in rng.uniform(0, 1, size=4):
                z = np.exp(2j * np.pi * t)
                pv = eval1(p, z)
                assert (
                    np.max(np.abs(eval1(q, z) - pv.conj().T @ pv)) <= 1e-10 * max(q.scale, 1)
                )

    def test_degree_bound(self):
        p = scalar_analytic([1.0, 0.5, 0.25])
        assert adjoint_product(p).degree <= p.degree


class TestAdjointProductList2:
    def test_single_constant(self):
        f = MatrixAnalyticPoly2(1, 1, {(0, 0): [[np.sqrt(2.0)]]})
        q = adjoint_product_list2([f])
        assert q.coeff(0, 0)[0, 0] == pytest.approx(2.0)

    def test_one_plus_z1z2(self):
        f = MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]], (1, 1): [[1.0]]})
        q = adjoint_product_list2([f])
        assert q.coeff(0, 0)[0, 0] == pytest.approx(2.0)
        assert q.coeff(1, 1)[0, 0] == pytest.approx(1.0)
        assert q.coeff(-1, -1)[0, 0] == pytest.approx(1.0)

    def test_two_factors_constant_sum(self):
        f1 = MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]]})
        f2 = MatrixAnalyticPoly2(1, 1, {(1, 0): [[1.0]]})
        q = adjoint_product_list2([f1, f2])
        assert q.deg1 == 0 and q.deg2 == 0
        assert q.coeff(0, 0)[0, 0] == pytest.approx(2.0)


class TestBlockToeplitz:
    def test_tridiagonal_scalar(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})
        np.testing.assert_allclose(
            block_toeplitz(q, 2), np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-14
        )

    def test_constant_blocks(self):
        q = MatrixLaurentPoly1.from_causal(2, {0: np.diag([1.0, 3.0])})
        t = block_toeplitz(q, 3)
        np.testing.assert_allclose(t, np.kron(np.eye(3), np.diag([1.0, 3.0])), atol=1e-14)

    def test_banded(self):
        q = scalar_laurent({0: 5.0, 1: 2.0})
        expected = np.array([[5.0, 2, 0], [2, 5, 2], [0, 2, 5]])
        np.testing.assert_allclose(block_toeplitz(q, 3), expected, atol=1e-14)

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(13)
        p = MatrixAnalyticPoly1(
            [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
        )
        t = block_toeplitz(adjoint_product(p), 5)
        np.testing.assert_array_equal(t, t.conj().T)

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_layout_within_the_degree(self, n_blocks):
        # n_blocks <= deg Q = 3: every block (p, s) is Q_{p-s}, none clipped.
        rng = np.random.default_rng(14)
        p = MatrixAnalyticPoly1(
            [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        )
        q = adjoint_product(p)
        expected = np.block(
            [[q.coeff(row - col) for col in range(n_blocks)] for row in range(n_blocks)]
        )
        np.testing.assert_array_equal(block_toeplitz(q, n_blocks), expected)


def laurent_instances():
    rng = np.random.default_rng(15)
    yield scalar_laurent({0: 2.0, 1: 1.0})
    yield MatrixLaurentPoly1(2, {})  # zero polynomial, degree 0
    yield MatrixLaurentPoly1.from_causal(2, {0: np.diag([1.0, 3.0])})
    for r, m in ((1, 3), (2, 2), (3, 4)):
        yield corpus.ridged_instance(rng, r, m)[0]
    plane = MatrixLaurentPoly2(1, {(0, 0): [[4.0]], (1, 1): [[0.5]], (-1, -1): [[0.5]]})
    yield lift_to_block(plane, 3)  # a box constructor


class TestStoredStack:
    def test_is_the_padded_stack_and_read_only(self):
        for q in laurent_instances():
            stack = laurent_stack(q.coeff, q.degree)
            assert q.stack.shape == (2 * q.degree + 3, q.size, q.size)
            assert q.stack.tobytes() == stack.tobytes()
            assert all(np.shares_memory(c, q.stack) for c in q.coeffs.values())
            with pytest.raises(ValueError, match="read-only"):
                q.stack[q.degree + 1, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                q.coeffs[0][0, 0] = 1.0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_entries_far_outside_the_band(self, r):
        # Block offsets up to +-2^20, at the corner and 2^20 blocks down the
        # diagonal, against the centre block column of a dense truncation of
        # 2m + 3 blocks: Q_d at block c + d for |d| <= c = m + 1, zero at c.
        rng = np.random.default_rng(16 + r)
        q = corpus.ridged_instance(rng, r, 2)[0]
        c = q.degree + 1
        column = np.concatenate([q.coeff(d) for d in range(-c, c + 1)])
        np.testing.assert_array_equal(block_toeplitz(q, 2 * c + 1)[:, c * r : (c + 1) * r], column)
        for shift in (0, 2**20):
            near = shift * r + np.arange(3 * r)
            far = shift * r + np.concatenate((np.arange(6 * r), rng.integers(0, 2**20 * r, 300)))
            for rows, cols in ((far, near[:, None]), (near[:, None], far)):
                got = toeplitz_entries(q.stack, rows, cols)
                d = np.clip(rows // r - cols // r, -c, c)
                np.testing.assert_array_equal(got, column[(c + d) * r + rows % r, cols % r])
                assert abs(rows // r - cols // r).max() >= 2**19  # far outside the band
            # The block gather at whole blocks: every row and column of the
            # blocks holding far and near, against toeplitz_entries there.
            for block_rows, block_cols in ((far // r, near // r), (near // r, far // r)):
                rows, cols = ((x[:, None] * r + np.arange(r)).ravel() for x in (block_rows, block_cols))
                got = poly.toeplitz_blocks(q.stack, block_rows, block_cols)
                np.testing.assert_array_equal(got, toeplitz_entries(q.stack, rows[:, None], cols))
                assert got.shape == (len(rows), len(cols))


class TestToeplitzPsdCheck:
    def test_nonnegative_passes(self):
        q = scalar_laurent({0: 2.0, 1: 1.0})
        verdict = toeplitz_psd_check(q, 4, tol=1e-12)
        assert verdict.ok and verdict.n_blocks == 4

    def test_sign_changing_fails(self):
        q = scalar_laurent({0: 0.0, 1: 1.0})
        verdict = toeplitz_psd_check(q, 2)
        assert not verdict.ok
        assert verdict.min_eig == pytest.approx(-1.0)

    def test_constant_one(self):
        assert toeplitz_psd_check(scalar_laurent({0: 1.0}), 8, tol=1e-12).ok

    @staticmethod
    def truncations():
        # PSD, rank-deficient (a common kernel for r > 1), indefinite and
        # zero symbols, each at four truncation sizes.
        rng = np.random.default_rng(71)
        qs = [MatrixLaurentPoly1(1, {0: [[0.0]]})]
        for r in (1, 2, 3):
            for m in (1, 3):
                p = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(m + 1)]
                u = rng.standard_normal((r, 1)) + 1j * rng.standard_normal((r, 1))
                qs.append(adjoint_product(MatrixAnalyticPoly1(p)))
                qs.append(adjoint_product(MatrixAnalyticPoly1([c @ u @ u.conj().T for c in p])))
                qs.append(MatrixLaurentPoly1.from_causal(r, {**dict(enumerate(p)), 0: p[0] + p[0].conj().T}))
        for q in qs:
            for n in sorted({1, 2, q.degree + 1, 3 * (q.degree + 1)}):
                yield q, n

    @staticmethod
    def shifted(q, n, tol, rel):
        # Q - c I, with c putting the truncation's min eig at -tol max|eig| rel.
        vals = np.linalg.eigvalsh(block_toeplitz(q, n))
        c = (vals[0] + tol * rel * vals[-1]) / (1 + tol * rel)
        coeffs = dict(q.coeffs)
        coeffs[0] = coeffs[0] - c * np.eye(q.size)
        return MatrixLaurentPoly1(q.size, coeffs)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    def test_cholesky_verdict_is_the_eigenvalue_verdict(self, tol):
        # ok and min_eig equal psd_check(T, tol)'s, min_eig bit for bit
        # also where the Cholesky decided and it is solved on first read.
        for q, n in self.truncations():
            cases = [q]
            if tol > 0 and q.scale > 0 and q.size * n > 1:  # a spectrum to shift apart
                cases += [self.shifted(q, n, tol, 1 + 1e-3), self.shifted(q, n, tol, 1 - 1e-3)]
            for case in cases:
                ref = linalg.psd_check(block_toeplitz(case, n), tol=tol)
                verdict = toeplitz_psd_check(case, n, tol=tol)
                assert (verdict.ok, verdict.n_blocks) == (ref.ok, n)
                assert verdict.min_eig == ref.min_eig
            if len(cases) == 3:  # the shifts straddle psd_check's threshold
                assert [toeplitz_psd_check(c, n, tol=tol).ok for c in cases[1:]] == [False, True]

    def test_min_eig_is_solved_on_first_read(self, monkeypatch):
        calls = []
        eig = linalg.eig_hermitian

        def counted(h, *, vectors=True):
            calls.append(len(h))
            return eig(h, vectors=vectors)

        monkeypatch.setattr(linalg, "eig_hermitian", counted)
        verdict = toeplitz_psd_check(scalar_laurent({0: 2.0, 1: 1.0}), 4, tol=1e-9)
        assert verdict.ok and calls == []
        assert verdict.min_eig == pytest.approx(2 - 2 * np.cos(np.pi / 5))
        assert verdict.min_eig == verdict.min_eig and calls == [4]
        failed = toeplitz_psd_check(scalar_laurent({0: 0.0, 1: 1.0}), 2, tol=1e-9)
        assert not failed.ok and calls == [4, 2]
        assert failed.min_eig == pytest.approx(-1.0) and calls == [4, 2]


class TestFourierDuality:
    def test_grid_evals_recover_coefficients(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(0, 5))
            p = MatrixAnalyticPoly1(
                [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(m + 1)]
            )
            q = adjoint_product(p)
            zs = circle_grid(6)  # 64 points
            vals = eval1_grid(q, zs)
            hat = np.fft.fft(vals, axis=0) / 64
            for k in range(-q.degree, q.degree + 1):
                assert (
                    np.max(np.abs(hat[k % 64] - q.coeff(k))) <= 1e-10 * max(q.scale, 1)
                )


def _entry(index, matrix):
    return {"index": index, "matrix": matrix}


# One literal file per kind: the origin is written for Laurent and analytic
# 1-D polynomials even when zero, omitted for an analytic 2-D one, and the
# empty analytic 2-D polynomial writes one zero origin entry.
FILE_CASES = [
    (
        MatrixLaurentPoly1.from_causal(1, {0: [[0.0]], 1: [[1.0]]}),
        {"kind": "laurent", "vars": 1, "size": 1, "degrees": [1], "coeffs": [
            _entry([-1], [[[1.0, -0.0]]]),
            _entry([0], [[[0.0, 0.0]]]),
            _entry([1], [[[1.0, 0.0]]]),
        ]},
    ),
    (
        MatrixAnalyticPoly1([np.zeros((1, 1)), np.zeros((1, 1)), np.array([[2.0 - 1.0j]])]),
        {"kind": "analytic", "vars": 1, "size": 1, "degrees": [2], "coeffs": [
            _entry([0], [[[0.0, 0.0]]]),
            _entry([2], [[[2.0, -1.0]]]),
        ]},
    ),
    (
        MatrixLaurentPoly2.from_causal(2, {(0, 0): 2 * np.eye(2), (0, 1): E12}),
        {"kind": "laurent", "vars": 2, "size": 2, "degrees": [0, 1], "coeffs": [
            _entry([0, -1], [[[0.0, -0.0], [0.0, -0.0]], [[1.0, -0.0], [0.0, -0.0]]]),
            _entry([0, 0], [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]),
            _entry([0, 1], [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        ]},
    ),
    (
        MatrixAnalyticPoly2(1, 1, {(0, 0): [[0.0]], (1, 0): [[1.0]], (0, 2): [[0.5j]]}),
        {"kind": "analytic", "vars": 2, "size": 1, "degrees": [1, 2], "coeffs": [
            _entry([0, 2], [[[0.0, 0.5]]]),
            _entry([1, 0], [[[1.0, 0.0]]]),
        ]},
    ),
    (
        MatrixAnalyticPoly2(2, 2, {}),
        {"kind": "analytic", "vars": 2, "size": 2, "degrees": [0, 0], "coeffs": [
            _entry([0, 0], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]),
        ]},
    ),
]


class TestJsonFormat:
    @pytest.mark.parametrize(
        "p, expected", FILE_CASES, ids=["laurent1", "analytic1", "laurent2", "analytic2", "empty2"]
    )
    def test_literal_file(self, p, expected):
        # Compared as text, so that signed zeros are pinned too.
        assert json.dumps(poly_to_json(p), sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_laurent1_roundtrip(self, tmp_path):
        q = MatrixLaurentPoly1.from_causal(2, {0: np.diag([1.0, 2.0]), 1: E12 + 0.5j * np.eye(2)})
        path = tmp_path / "q.json"
        save_poly(path, q)
        q2 = load_poly(path)
        assert isinstance(q2, MatrixLaurentPoly1)
        assert q2.degree == q.degree
        for k in range(-q.degree, q.degree + 1):
            np.testing.assert_allclose(q2.coeff(k), q.coeff(k), atol=0)

    def test_analytic1_roundtrip(self, tmp_path):
        p = MatrixAnalyticPoly1([np.eye(2), E12])
        path = tmp_path / "p.json"
        save_poly(path, p)
        p2 = load_poly(path, kind="analytic")
        assert isinstance(p2, MatrixAnalyticPoly1)
        np.testing.assert_array_equal(p2.coeffs[1], E12)

    def test_laurent2_roundtrip(self, tmp_path):
        q = MatrixLaurentPoly2.from_causal(
            1, {(0, 0): [[5.0]], (1, 0): [[1.0]], (0, 1): [[1.0]]}
        )
        path = tmp_path / "q2.json"
        save_poly(path, q)
        q2 = load_poly(path)
        assert isinstance(q2, MatrixLaurentPoly2)
        assert (q2.deg1, q2.deg2) == (1, 1)

    def test_analytic2_roundtrip(self, tmp_path):
        f = MatrixAnalyticPoly2(1, 1, {(0, 0): [[1.0]], (1, 1): [[2.0 + 1j]]})
        path = tmp_path / "f.json"
        save_poly(path, f)
        f2 = load_poly(path)
        assert isinstance(f2, MatrixAnalyticPoly2)
        assert f2.coeff(1, 1)[0, 0] == pytest.approx(2.0 + 1j)

    def test_missing_indices_mean_zero(self):
        obj = {
            "vars": 1,
            "size": 1,
            "degrees": [1],
            "coeffs": [
                {"index": [0], "matrix": [[[2.0, 0.0]]]},
                {"index": [1], "matrix": [[[1.0, 0.0]]]},
                {"index": [-1], "matrix": [[[1.0, 0.0]]]},
            ],
        }
        q = poly_from_json(obj)
        assert q.degree == 1

    def test_laurent_validation_on_load(self):
        obj = {
            "vars": 1,
            "size": 1,
            "degrees": [1],
            "coeffs": [{"index": [1], "matrix": [[[1.0, 0.0]]]}],
        }
        with pytest.raises(PolyFormatError, match="symmetry"):
            poly_from_json(obj)

    def test_analytic_skips_symmetry(self):
        obj = {
            "kind": "analytic",
            "vars": 1,
            "size": 1,
            "degrees": [1],
            "coeffs": [{"index": [1], "matrix": [[[1.0, 0.0]]]}],
        }
        p = poly_from_json(obj)
        assert isinstance(p, MatrixAnalyticPoly1)

    def test_analytic_rejects_negative_index(self):
        obj = {
            "kind": "analytic",
            "vars": 1,
            "size": 1,
            "degrees": [1],
            "coeffs": [{"index": [-1], "matrix": [[[1.0, 0.0]]]}],
        }
        with pytest.raises(PolyFormatError, match=">= 0"):
            poly_from_json(obj)

    def test_kind_mismatch_rejected(self):
        obj = {"kind": "analytic", "vars": 1, "size": 1, "degrees": [0], "coeffs": []}
        with pytest.raises(PolyFormatError, match="marked"):
            poly_from_json(obj, kind="laurent")

    def test_malformed_matrix(self):
        obj = {
            "vars": 1,
            "size": 2,
            "degrees": [0],
            "coeffs": [{"index": [0], "matrix": [[[1.0, 0.0]]]}],
        }
        with pytest.raises(PolyFormatError, match="shape"):
            poly_from_json(obj)

    @pytest.mark.parametrize("kind, nvars", [("laurent", 1), ("analytic", 1), ("laurent", 2), ("analytic", 2)])
    def test_block_errors_name_the_file_entry(self, kind, nvars):
        # Each block is checked once, by the constructor; the error names
        # the file's entry number, the first bad one, for every kind.
        ok = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        small, nan = [[[1.0, 0.0]]], [[[1.0, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        last = -1 if kind == "laurent" else 2  # a Laurent file may list both sides of a pair
        index = [[0], [1], [last]] if nvars == 1 else [[0, 0], [1, 0], [last, 0]]
        for mats, message in [
            ([ok, small, small], "coefficient 1: matrix shape (1, 1), expected (2,2)"),
            ([small, small, small], "coefficient 0: matrix shape (1, 1), expected (2,2)"),
            ([ok, nan, small], "coefficient 1: non-finite matrix entries"),
        ]:
            obj = {"kind": kind, "vars": nvars, "size": 2,
                   "coeffs": [{"index": i, "matrix": m} for i, m in zip(index, mats)]}
            with pytest.raises(PolyFormatError) as err:
                poly_from_json(obj)
            assert str(err.value) == message
