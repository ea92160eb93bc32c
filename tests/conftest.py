from dataclasses import replace

import numpy as np
import pytest

from perronfem import BoundaryMode, CoefficientSet, assemble, \
    generate_structured
from perronfem.lattice import EXHAUSTIVE_DIM, MetzlerGenerator
from perronfem.semigroup import march

MIXED_TAGS = {"bottom": "D", "right": "N", "top": "N", "left": "N"}


@pytest.fixture(scope="session")
def robin_mesh8():
    return generate_structured("unit_square", 8, "flux")


@pytest.fixture(scope="session")
def dirichlet_mesh8():
    return generate_structured("unit_square", 8, "dirichlet")


@pytest.fixture(scope="session")
def mixed_mesh8():
    return generate_structured("unit_square", 8, MIXED_TAGS)


@pytest.fixture(scope="session")
def robin_op8(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8, beta=1.0)
    return assemble(robin_mesh8, coeffs, BoundaryMode.ROBIN)


@pytest.fixture(scope="session")
def neumann_op8(robin_mesh8):
    coeffs = CoefficientSet.constant(robin_mesh8)
    return assemble(robin_mesh8, coeffs, BoundaryMode.NEUMANN)


@pytest.fixture(scope="session")
def dirichlet_op8(dirichlet_mesh8):
    coeffs = CoefficientSet.constant(dirichlet_mesh8)
    return assemble(dirichlet_mesh8, coeffs, BoundaryMode.DIRICHLET)


def dense_ie_step(op, dt):
    """Independent dense implicit Euler step matrix (lumped mass)."""
    M = np.diag(op.mass_lumped)
    A = op.stiffness.toarray().real
    return np.linalg.solve(M + dt * A, M)


def random_metzler(rng: np.random.Generator,
                   n: int | None = None) -> MetzlerGenerator:
    """Seeded generator sampler mixing sparse and dense coupling patterns."""
    if n is None:
        n = int(rng.integers(1, EXHAUSTIVE_DIM + 1))
    density = float(rng.uniform(0.1, 0.9))
    off = rng.uniform(0.0, 2.0, size=(n, n)) * \
        (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(off, 0.0)
    diag = rng.uniform(-2.0, 0.5, size=n)
    return MetzlerGenerator(off + np.diag(diag))


def dense_kernel(op, t, cfg):
    """The dense K(t) as an (n_dof, n_dof) array, marched the way
    ``perronfem kernel`` marches it: every unit point mass as one block
    from diag(1/m_L). t may be a tuple of times: one march to the latest,
    one array per time in the order given."""
    single = not isinstance(t, tuple)
    steps = [replace(cfg, t_end=ti).n_steps for ti in ((t,) if single else t)]
    states = march(op, cfg, np.diag(1.0 / op.mass_lumped), max(steps))
    snapshots = {k: U for k, U in enumerate(states, 1) if k in steps}
    out = [snapshots[n] for n in steps]
    return out[0] if single else tuple(out)
