import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronfem.lattice import LatticeError, MetzlerGenerator, \
    invariant_masks, is_irreducible, perron_report, \
    point_positivity_theorem, positivity_improving_equiv, \
    schaefer_approx_check, semigroup_at
from tests.conftest import random_metzler

SYMMETRIC_2X2 = MetzlerGenerator([[-1.0, 1.0], [1.0, -1.0]])
TRIANGULAR_2X2 = MetzlerGenerator([[0.0, 1.0], [0.0, 0.0]])


def cycle_generator(n):
    Q = -np.eye(n)
    for i in range(n):
        Q[(i + 1) % n, i] = 1.0
    return MetzlerGenerator(Q)


def taylor_expm(Q, t, terms=60):
    """Independent exponential: scaled Taylor series with repeated squaring."""
    s = max(0, int(math.ceil(math.log2(max(1.0, t * np.abs(Q).sum())))) + 1)
    X = (t / 2 ** s) * Q
    acc = np.eye(len(Q))
    term = np.eye(len(Q))
    for k in range(1, terms):
        term = term @ X / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def test_generator_validation():
    with pytest.raises(LatticeError, match="negative"):
        MetzlerGenerator([[1.0, -0.1], [0.0, 1.0]])
    with pytest.raises(LatticeError):
        MetzlerGenerator(np.zeros((2, 3)))
    MetzlerGenerator([[-5.0]])  # diagonal may be anything


def test_symmetric_2x2_closed_form_exponential():
    # exp(tQ) for the symmetric exchange generator
    for t in (0.01, 0.5, 2.0):
        S = semigroup_at(SYMMETRIC_2X2, t)
        on = 0.5 * (1.0 + math.exp(-2.0 * t))
        off = 0.5 * (1.0 - math.exp(-2.0 * t))
        np.testing.assert_allclose(S, [[on, off], [off, on]], atol=1e-13)


def test_triangular_2x2_closed_form_and_reducibility():
    for t in (0.5, 1.0, 3.0):
        S = semigroup_at(TRIANGULAR_2X2, t)
        np.testing.assert_allclose(S, [[1.0, t], [0.0, 1.0]], atol=1e-13)
        assert S[1, 0] == 0.0  # snapped exactly
    # vectors vanishing in the second coordinate form the invariant ideal
    assert invariant_masks(TRIANGULAR_2X2) == [frozenset({1})]
    assert not is_irreducible(TRIANGULAR_2X2)
    assert not positivity_improving_equiv(TRIANGULAR_2X2)


def test_symmetric_2x2_is_positivity_improving():
    assert is_irreducible(SYMMETRIC_2X2)
    assert positivity_improving_equiv(SYMMETRIC_2X2, (0.01, 1.0, 10.0))


def test_block_diagonal_is_reducible():
    Q = np.zeros((4, 4))
    Q[:2, :2] = SYMMETRIC_2X2.Q
    Q[2:, 2:] = SYMMETRIC_2X2.Q
    g = MetzlerGenerator(Q)
    assert not is_irreducible(g)
    assert not positivity_improving_equiv(g)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_cycle_generator_irreducible(n):
    g = cycle_generator(n)
    assert is_irreducible(g)  # includes the exhaustive mask cross-check
    assert positivity_improving_equiv(g)


def test_exponential_matches_independent_taylor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_metzler(rng)
        for t in (0.1, 1.0):
            S = semigroup_at(g, t)
            T = taylor_expm(g.Q, t)
            assert np.abs(S - T).max() <= 1e-10 * max(1.0, np.abs(T).max())


def test_point_positivity_theorem_small_cases():
    assert point_positivity_theorem(SYMMETRIC_2X2, 0)
    g = cycle_generator(4)
    for x in range(4):
        assert point_positivity_theorem(g, x, t_grid=(0.1, 1.0))
    with pytest.raises(LatticeError, match="irreducible"):
        point_positivity_theorem(TRIANGULAR_2X2, 0)


def test_perron_report_symmetric_2x2():
    rep = perron_report(SYMMETRIC_2X2)
    assert rep.lambda1 == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(rep.vector,
                               [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert rep.simple
    assert rep.gap == pytest.approx(2.0, abs=1e-12)


def test_perron_report_defective_triangular():
    rep = perron_report(TRIANGULAR_2X2)
    assert rep.lambda1 == 0.0
    assert not rep.simple  # algebraic multiplicity two without irreducibility


def test_perron_vector_against_power_iteration():
    rng = np.random.default_rng(123)
    g = None
    while g is None or not is_irreducible(g):
        g = random_metzler(rng, n=5)
    rep = perron_report(g)
    assert rep.simple
    assert np.all(rep.vector > 0)
    # power iteration on exp(Q) converges to the same direction
    S = semigroup_at(g, 1.0)
    v = np.ones(5)
    for _ in range(2000):
        v = S @ v
        v /= np.linalg.norm(v)
    lam_power = -math.log(float(v @ (S @ v)))
    assert np.abs(v - rep.vector).max() <= 1e-8
    assert lam_power == pytest.approx(rep.lambda1, abs=1e-8)


# -- lattice order helpers -----------------------------------------------------

def lattice_limit_reaches(u, v, powers=40):
    # direct computation of min(v, k u) for growing k
    for p in range(powers):
        if np.array_equal(np.minimum(v, (2.0 ** p) * u), v):
            return True
    return False


def test_schaefer_examples():
    ones = np.ones(3)
    assert schaefer_approx_check(ones, np.array([0.0, 2.0, 5.0]))
    assert not schaefer_approx_check(np.array([1.0, 0.0]),
                                     np.array([0.0, 1.0]))
    assert schaefer_approx_check(np.array([1.0, 2.0, 0.0]),
                                 np.array([0.0, 3.0, 0.0]))


nonneg_entry = st.one_of(st.just(0.0),
                         st.floats(min_value=1e-6, max_value=4.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(nonneg_entry, min_size=1, max_size=6),
       st.lists(nonneg_entry, min_size=1, max_size=6))
def test_schaefer_agrees_with_direct_lattice_limit(u, v):
    n = min(len(u), len(v))
    u = np.asarray(u[:n])
    v = np.asarray(v[:n])
    assert schaefer_approx_check(u, v) == lattice_limit_reaches(u, v)


# -- invariances -----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       scales=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=6,
                       max_size=6))
def test_irreducibility_invariant_under_diagonal_similarity(seed, scales):
    rng = np.random.default_rng(seed)
    g = random_metzler(rng)
    D = np.diag(scales[:g.n])
    transformed = MetzlerGenerator(D @ g.Q @ np.linalg.inv(D))
    assert is_irreducible(transformed) == is_irreducible(g)


def test_gap_positive_whenever_simple_on_seeded_sample():
    rng = np.random.default_rng(7)
    seen_irreducible = 0
    for _ in range(60):
        g = random_metzler(rng)
        rep = perron_report(g)
        if rep.simple and g.n > 1:
            assert rep.gap > 0
        if is_irreducible(g):
            seen_irreducible += 1
            assert rep.simple
            assert np.all(rep.vector > 0)
    assert seen_irreducible > 10  # the sampler produces both kinds
