"""The four benchmark workloads.

Each workload is a command (``verify`` or ``parabolic``), a config drawn
from a seed, the verdict every check must return, and where its
principal eigenvalue sits in the output. Sizes are fixed by the workload;
the seed draws only coefficient values, from ranges where every expected
verdict holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

PASS = "pass"
NA = "not_applicable"

#: registry labels in suite order
ALL_LABELS = (
    "ellipticity", "mmatrix-compatible", "corkscrew", "principal-positivity",
    "constrained-trace-zero", "perron-sign-structure", "spectral-gap",
    "positivity-improving", "kernel-positivity", "kernel-symmetry",
    "chapman-kolmogorov", "complex-robin-strict-bound", "lattice-oracle",
)

#: subdivisions used by the smoke size of every workload
SMOKE_N = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # "verify" or "parabolic"
    full_n: int
    make_config: Callable[[int, int], dict]   # (seed, n) -> config
    expected: dict                    # label -> verdict (verify only)
    labels: tuple | None = None       # run label by label on one Problem
    lambda1_at: tuple | None = None   # (label, payload key) holding lambda1
    recorded_lambda1: float | None = None   # at full size, seed-free inputs
    residual_bound: dict | None = None      # size -> weak residual bound
    steps: int = 0                    # parabolic horizon in steps

    def n(self, size: str) -> int:
        return self.full_n if size == "full" else SMOKE_N


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _verify_robin(seed: int, n: int) -> dict:
    rng = random.Random(seed)
    beta = _uniform(rng, 0.5, 2.0)
    # a 6-cycle with seeded chords: irreducible, hence positivity improving
    q = [[0.0] * 6 for _ in range(6)]
    for i in range(6):
        q[i][(i + 1) % 6] = _uniform(rng, 0.5, 2.0)
        q[i][(i + 3) % 6] = _uniform(rng, 0.0, 0.5)
    for i in range(6):
        q[i][i] = -sum(q[i]) - _uniform(rng, 0.1, 1.0)
    return {
        "mesh": {"shape": "unit_square", "n": n, "tags": "N"},
        "coefficients": {"beta": beta, "mode": "robin"},
        "oracle": {"matrix": q, "expect_irreducible": True},
        "output_dir": "out",
    }


def _elliptic_lshape_mixed(seed: int, n: int) -> dict:
    del seed  # nothing in this workload is drawn
    tags = {seg: "N" for seg in ("right", "inner_h", "inner_v", "top",
                                  "left")}
    tags["bottom"] = "D"
    return {
        "mesh": {"shape": "l_shape", "n": n, "tags": tags},
        "coefficients": {"mode": "mixed"},
        "output_dir": "out",
    }


PARABOLIC_DT = 1e-4
PARABOLIC_STEPS = 200


def _parabolic_dirichlet(seed: int, n: int) -> dict:
    rng = random.Random(seed)
    base = _uniform(rng, 0.5, 2.0)
    ramp = _uniform(rng, 0.0, 1.0)
    mid = _uniform(rng, 0.2, 1.0)
    end = _uniform(rng, 0.0, 0.5)
    u0 = f"{base!r} + {ramp!r}*x*y"
    t_end = PARABOLIC_DT * PARABOLIC_STEPS
    return {
        "mesh": {"shape": "unit_square", "n": n, "tags": "D"},
        "coefficients": {"mode": "dirichlet"},
        "evolution": {"dt": PARABOLIC_DT, "t_end": t_end},
        "u0": u0,
        "phi": {"samples": [
            {"t": 0.0, "expr": u0},
            {"t": 0.5 * t_end, "expr": f"{mid!r}*(1 + x)"},
            {"t": t_end, "expr": f"{end!r}"},
        ]},
        "test_bank_size": 20,
        "seed": rng.randrange(2 ** 31),
        "output_dir": "out",
    }


def _verify_complex_robin(seed: int, n: int) -> dict:
    rng = random.Random(seed)
    beta = {"re": _uniform(rng, 0.5, 2.0), "im": _uniform(rng, 0.5, 2.0)}
    return {
        "mesh": {"shape": "unit_square", "n": n, "tags": "N"},
        "coefficients": {"beta": beta, "mode": "complex_robin"},
        "output_dir": "out",
    }


_ROBIN_EXPECTED = {
    "ellipticity": PASS, "mmatrix-compatible": PASS,
    "principal-positivity": PASS, "constrained-trace-zero": NA,
    "perron-sign-structure": PASS, "spectral-gap": PASS,
    "positivity-improving": PASS, "kernel-positivity": PASS,
    "kernel-symmetry": PASS, "chapman-kolmogorov": PASS,
    "complex-robin-strict-bound": NA, "lattice-oracle": PASS,
}

_MIXED_LABELS = ("ellipticity", "mmatrix-compatible", "corkscrew",
                 "principal-positivity", "constrained-trace-zero",
                 "perron-sign-structure", "spectral-gap")

_COMPLEX_EXPECTED = {
    "ellipticity": PASS, "mmatrix-compatible": NA,
    "principal-positivity": NA, "constrained-trace-zero": NA,
    "perron-sign-structure": NA, "spectral-gap": PASS,
    "positivity-improving": NA, "kernel-positivity": NA,
    "kernel-symmetry": NA, "chapman-kolmogorov": NA,
    "complex-robin-strict-bound": PASS, "lattice-oracle": NA,
}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-robin-n24",
        why="default verify suite on a Robin square plus a 6x6 oracle; "
            "almost all time is heat-kernel extraction",
        command="verify", full_n=24, make_config=_verify_robin,
        expected=_ROBIN_EXPECTED,
        lambda1_at=("principal-positivity", "lambda1")),
    Workload(
        name="elliptic-lshape-mixed-n96",
        why="seven elliptic checks label by label on a 27,840-dof mixed "
            "L-shape; mesh generation and sparse eigensolves, no semigroup",
        command="verify", full_n=96, make_config=_elliptic_lshape_mixed,
        expected={label: PASS for label in _MIXED_LABELS},
        labels=_MIXED_LABELS,
        lambda1_at=("principal-positivity", "lambda1"),
        # shift-invert Lanczos (scipy eigsh, sigma = 0) on the assembled
        # consistent pencil; the inputs do not depend on the seed
        recorded_lambda1=0.7711870017060592),
    Workload(
        name="parabolic-dirichlet-n64",
        why="parabolic run over 200 steps: one right-hand side per step, "
            "all-pairs graph threshold, CSV and SVG output",
        command="parabolic", full_n=64, make_config=_parabolic_dirichlet,
        expected={},
        residual_bound={"full": 1e-4, "smoke": 1e-2},
        steps=PARABOLIC_STEPS),
    Workload(
        name="verify-complex-robin-n20",
        why="default verify suite with complex beta; the only workload on "
            "the dense non-Hermitian eigensolver and complex_robin_bound",
        command="verify", full_n=20, make_config=_verify_complex_robin,
        expected=_COMPLEX_EXPECTED,
        # lambda1 of the real-part Robin problem
        lambda1_at=("complex-robin-strict-bound", "min_real_part_problem")),
)}
