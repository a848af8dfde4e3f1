import json

import numpy as np
import pytest

from stablecomp import (BlockSplit, SpectralRep, char_fn, decouple,
                        marginal_block, reflect, rep_hash, scale_q)


def coord_rep(q, n=2):
    return SpectralRep.from_atoms(q, [(1.0, np.eye(n)[i]) for i in range(n)])


def random_rep(rng, n, q, m=4):
    return SpectralRep(n=n, q=q, weights=rng.exponential(1.0, m) + 0.1,
                       atoms=rng.standard_normal((m, n)))


def random_xi_grid(rng, rep, count=40):
    """xi points scaled so the characteristic exponent stays O(1)."""
    g = rng.standard_normal((count, rep.n))
    s = scale_q(rep, g)
    return g * (rng.uniform(0.1, 2.0, count) / np.maximum(s, 1e-12))[:, None]


class TestScale:
    def test_l1_coordinate_atoms(self):
        rep = coord_rep(1.0)
        assert scale_q(rep, np.array([3.0, 4.0])) == pytest.approx(7.0, abs=1e-14)

    def test_euclidean_coordinate_atoms(self):
        rep = coord_rep(2.0)
        assert scale_q(rep, np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-14)

    def test_atom_orthogonal_to_xi(self):
        rep = SpectralRep.from_atoms(2.0, [(2.0, (1.0, 1.0))])
        assert scale_q(rep, np.array([1.0, -1.0])) == 0.0

    def test_one_homogeneous(self):
        rng = np.random.default_rng(0)
        rep = random_rep(rng, 3, 1.3)
        xi = rng.standard_normal(3)
        for t in (-2.5, 0.25, 7.0):
            assert scale_q(rep, t * xi) == pytest.approx(
                abs(t) * scale_q(rep, xi), rel=1e-12)

    def test_dimension_mismatch(self):
        rep = coord_rep(1.0)
        with pytest.raises(ValueError):
            scale_q(rep, np.zeros(3))

    @pytest.mark.parametrize("n", [2.5, 0, -1])
    def test_dimension_must_be_a_positive_integer(self, n):
        # 2.5 used to become n = 2, as in BlockSplit and MaxAbsBase it is an error
        with pytest.raises(ValueError, match=f"dimension must be a positive integer, got {n}"):
            SpectralRep(n=n, q=1.0, weights=[1.0], atoms=[[1.0, 0.0]])
        d = json.loads(coord_rep(1.0).to_json())
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            SpectralRep.from_json_dict({**d, "n": n})

    def test_integral_float_dimension_accepted(self):
        rep = SpectralRep(n=2.0, q=1.0, weights=[1.0], atoms=[[1.0, 0.0]])
        assert rep.n == 2 and isinstance(rep.n, int)


class TestCharFn:
    def test_unit_at_zero(self):
        rng = np.random.default_rng(1)
        rep = random_rep(rng, 4, 0.8)
        assert char_fn(rep, np.zeros(4)) == 1.0

    def test_rank_one_value(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        assert char_fn(rep, np.array([1.0, 1.0])) == pytest.approx(np.exp(-4.0), rel=1e-14)

    def test_l1_value(self):
        rep = coord_rep(1.0)
        assert char_fn(rep, np.array([3.0, 4.0])) == pytest.approx(np.exp(-7.0), rel=1e-14)

    def test_even(self):
        rng = np.random.default_rng(2)
        rep = random_rep(rng, 2, 1.7)
        xi = random_xi_grid(rng, rep)
        assert np.array_equal(char_fn(rep, xi), char_fn(rep, -xi))


class TestDecouple:
    def test_already_block_supported(self):
        # atoms supported on a single block: decoupling changes nothing in law
        rep = SpectralRep.from_atoms(
            1.5, [(1.0, (1.0, 0.5, 0.0)), (0.7, (0.0, 0.0, 2.0))])
        dec = decouple(rep, BlockSplit(2))
        rng = np.random.default_rng(3)
        xi = random_xi_grid(rng, rep)
        assert np.max(np.abs(char_fn(rep, xi) - char_fn(dec, xi))) == 0.0

    def test_rank_one_example(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        dec = decouple(rep, BlockSplit(1))
        xi = np.array([1.0, 1.0])
        assert char_fn(rep, xi) == pytest.approx(np.exp(-4.0), rel=1e-14)
        assert char_fn(dec, xi) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_atom_count_doubles(self):
        rng = np.random.default_rng(4)
        rep = random_rep(rng, 4, 1.0, m=3)  # dense atoms, no zero blocks
        dec = decouple(rep, BlockSplit(2))
        assert dec.m == 6

    def test_factorizes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rep = random_rep(rng, 3, float(rng.uniform(0.4, 2.0)))
            k = int(rng.integers(1, 3))
            dec = decouple(rep, BlockSplit(k))
            xi = random_xi_grid(rng, rep)
            head = xi.copy()
            head[:, k:] = 0.0
            tail = xi.copy()
            tail[:, :k] = 0.0
            prod = char_fn(dec, head) * char_fn(dec, tail)
            assert np.max(np.abs(char_fn(dec, xi) - prod)) < 1e-12

    def test_marginals_preserved(self):
        rng = np.random.default_rng(6)
        rep = random_rep(rng, 3, 1.4)
        dec = decouple(rep, BlockSplit(1))
        xi = random_xi_grid(rng, rep)
        for lo, hi in ((0, 1), (1, 3)):
            sub = xi[:, lo:hi]
            diff = np.abs(char_fn(marginal_block(rep, lo, hi), sub)
                          - char_fn(marginal_block(dec, lo, hi), sub))
            assert diff.max() < 1e-12

    def test_invalid_split(self):
        rep = coord_rep(1.0)
        with pytest.raises(ValueError):
            decouple(rep, BlockSplit(2))


class TestReflect:
    def test_involution(self):
        rng = np.random.default_rng(7)
        rep = random_rep(rng, 3, 0.9)
        twice = reflect(reflect(rep, BlockSplit(1)), BlockSplit(1))
        assert np.array_equal(twice.atoms, rep.atoms)
        assert np.array_equal(twice.weights, rep.weights)

    def test_rank_one_atoms(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        refl = reflect(rep, BlockSplit(1))
        assert np.array_equal(refl.atoms, np.array([[1.0, -1.0]]))

    def test_cross_term_identity(self):
        rng = np.random.default_rng(8)
        rep = random_rep(rng, 4, 1.6)
        k = 2
        refl = reflect(rep, BlockSplit(k))
        xi = random_xi_grid(rng, rep)
        flipped = xi.copy()
        flipped[:, k:] *= -1.0
        assert np.allclose(scale_q(refl, xi), scale_q(rep, flipped),
                           rtol=1e-13, atol=0.0)

    def test_symmetric_rep_unchanged(self):
        # atoms closed under the sign flip: law unchanged
        rep = SpectralRep.from_atoms(
            1.2, [(1.0, (1.0, 0.5)), (1.0, (1.0, -0.5))])
        refl = reflect(rep, BlockSplit(1))
        rng = np.random.default_rng(9)
        xi = random_xi_grid(rng, rep)
        assert np.max(np.abs(char_fn(rep, xi) - char_fn(refl, xi))) < 1e-15


class TestMarginal:
    def test_full_range_identity(self):
        rng = np.random.default_rng(10)
        rep = random_rep(rng, 3, 1.1)
        sub = marginal_block(rep, 0, 3)
        assert np.array_equal(sub.atoms, rep.atoms)

    def test_single_coordinate(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        sub = marginal_block(rep, 0, 1)
        assert sub.n == 1 and np.array_equal(sub.atoms, np.array([[1.0]]))

    def test_invalid_range(self):
        rep = coord_rep(1.0)
        for lo, hi in ((0, 0), (1, 1), (-1, 2), (0, 3)):
            with pytest.raises(ValueError):
                marginal_block(rep, lo, hi)

    def test_degenerate_block_rejected(self):
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0))])
        with pytest.raises(ValueError):
            marginal_block(rep, 1, 2)


class TestValidationAndJson:
    def test_bad_q(self):
        for q in (0.0, -1.0, 2.5, np.nan):
            with pytest.raises(ValueError):
                SpectralRep.from_atoms(q, [(1.0, (1.0, 0.0))])

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            SpectralRep.from_atoms(1.0, [(0.0, (1.0, 0.0))])
        with pytest.raises(ValueError):
            SpectralRep.from_atoms(1.0, [(-2.0, (1.0, 0.0))])

    def test_zero_map_rejected(self):
        with pytest.raises(ValueError):
            SpectralRep.from_atoms(1.0, [(1.0, (0.0, 0.0))])

    def test_no_atoms(self):
        with pytest.raises(ValueError):
            SpectralRep.from_atoms(1.0, [])

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        rep = random_rep(rng, 3, 1.25)
        back = SpectralRep.from_json(rep.to_json())
        assert np.array_equal(back.atoms, rep.atoms)
        assert np.array_equal(back.weights, rep.weights)
        assert back.q == rep.q and back.n == rep.n
        assert rep_hash(back) == rep_hash(rep)

    def test_atoms_immutable(self):
        rep = coord_rep(1.0)
        with pytest.raises(ValueError):
            rep.atoms[0, 0] = 5.0
