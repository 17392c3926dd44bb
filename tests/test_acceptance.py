"""Runs every acceptance check; one test per criterion, detail printed."""

import numpy as np
import pytest
from scipy.linalg import expm

from complexitylab.acceptance import CHECKS
from complexitylab.paulis import evolve


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance(name, check):
    detail = check()
    print(f"PASS {name}: {detail}")


@pytest.mark.parametrize("dim, scale", [(2, 0.1), (8, 1.0), (8, 3.0), (16, 0.5)])
def test_expm_antihermitian_matches_scipy(dim, scale):
    # the Loschmidt check exponentiates its anti-Hermitian generator as evolve(1j * A, 1)
    rng = np.random.default_rng(dim)
    for _ in range(5):
        G = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        A = (G - G.conj().T) / 2
        assert np.allclose(evolve(1j * A, 1.0), expm(A), rtol=0, atol=1e-13)
