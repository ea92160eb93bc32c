import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perronfem.lattice import LatticeError, MetzlerGenerator, \
    invariant_masks, is_irreducible, perron_report, \
    positivity_improving_equiv, semigroup_at
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


def test_each_sample_is_evaluated_once(monkeypatch):
    # one exponential per sample time and one irreducibility verdict (whose
    # mask enumeration takes exp(Q)) up to the exhaustive dimension; t = 0
    # needs no exponential
    import perronfem.lattice as lattice
    calls = {"semigroup_at": [], "is_irreducible": []}
    for name in calls:
        real = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, lambda g, *a, _r=real, _n=name:
                            calls[_n].append(a) or _r(g, *a))
    for g, improving in ((cycle_generator(4), True),
                         (cycle_generator(8), True), (TRIANGULAR_2X2, False)):
        for c in calls.values():
            c.clear()
        exhaustive = g.n <= lattice.EXHAUSTIVE_DIM
        assert lattice.positivity_improving_equiv(g) is improving
        assert calls == {
            "semigroup_at": [(0.01,), (1.0,), (10.0,)] + [(1.0,)] * exhaustive,
            "is_irreducible": [()] * exhaustive}
    monkeypatch.setattr(lattice, "expm", lambda *a: pytest.fail("expm at 0"))
    assert np.array_equal(semigroup_at(cycle_generator(3), 0.0), np.eye(3))


def test_exponential_matches_independent_taylor_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_metzler(rng)
        for t in (0.1, 1.0):
            S = semigroup_at(g, t)
            T = taylor_expm(g.Q, t)
            assert np.abs(S - T).max() <= 1e-10 * max(1.0, np.abs(T).max())


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
