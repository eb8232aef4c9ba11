"""Seeded pure-state samplers that only the tests draw from: product states
and entangled states with a floor on every Schmidt coefficient."""

import numpy as np

from kdentangle.errors import BadSpec
from kdentangle.states import BipartiteDims, BipartitePureState, haar_unitary


def random_product_pure(dims: BipartiteDims, seed=0) -> BipartitePureState:
    rng = np.random.default_rng(seed)
    za = rng.standard_normal(dims.da) + 1j * rng.standard_normal(dims.da)
    zb = rng.standard_normal(dims.db) + 1j * rng.standard_normal(dims.db)
    amps = np.kron(za / np.linalg.norm(za), zb / np.linalg.norm(zb))
    return BipartitePureState(dims, amps)


def random_entangled_pure(dims: BipartiteDims, min_coeff: float = 0.1, seed=0) -> BipartitePureState:
    """Random pure state whose smallest Schmidt coefficient is >= ``min_coeff``.

    The squared coefficients are ``min_coeff**2`` each plus a uniformly random
    share of the remaining weight ``1 - d * min_coeff**2``; at the feasibility
    limit ``min_coeff = 1/sqrt(d)`` they are all equal.
    """
    rng = np.random.default_rng(seed)
    d = min(dims.da, dims.db)
    if min_coeff * np.sqrt(d) > 1.0:
        raise BadSpec(f"min_coeff {min_coeff} infeasible for Schmidt rank {d}")
    floor = max(min_coeff, 0.0) ** 2
    c = np.sqrt(floor + (1.0 - d * floor) * rng.dirichlet(np.ones(d)))
    u_a = haar_unitary(dims.da, rng)
    u_b = haar_unitary(dims.db, rng)
    amps = np.zeros(dims.total, dtype=complex)
    for j in range(d):
        amps += c[j] * np.kron(u_a[:, j], u_b[:, j])
    return BipartitePureState(dims, amps / np.linalg.norm(amps))
