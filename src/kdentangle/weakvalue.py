"""Synthetic estimation of quasiprobability imaginary parts and of the
entanglement value from finite projective-measurement records.

The imaginary part of a table cell equals half the difference of two Born
probabilities: outcome ``y`` measured on the phase-rotated input state versus
on the phase-rotated post-measurement state of the nonselective binary
measurement of ``P_x (x) I``. Only projective statistics are needed, so the
estimator stays stable where the postselection probability is small.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec
from .kd import born_probabilities, optimal_second_basis
from .optimize import OptimizerConfig, minimize_over_bases
from .states import BipartitePureState, as_state_matrix, require_basis


@dataclass(frozen=True)
class ShotRecord:
    preparation: str
    basis: str
    outcome: int
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise BadSpec("shot counts must be nonnegative")


@dataclass(frozen=True)
class WeakValueEstimate:
    value: complex
    std_error_re: float
    std_error_im: float
    shots_used: int

    def __post_init__(self):
        if self.std_error_re < 0 or self.std_error_im < 0:
            raise BadSpec("standard errors must be nonnegative")
        if self.shots_used <= 0:
            raise BadSpec("shots_used must be positive")


def _clipped_probs(rho_mat: np.ndarray, basis: np.ndarray) -> np.ndarray:
    p = np.clip(born_probabilities(rho_mat, basis), 0.0, None)
    return p / p.sum()


def derived_seed(master: int, basis: np.ndarray, x: int, prep: int) -> int:
    """Deterministic per-cell seed from the measurement setting, so sampling
    results do not depend on evaluation order."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(master)).encode())
    h.update(np.ascontiguousarray(basis).tobytes())
    h.update(int(x).to_bytes(4, "little", signed=False))
    h.update(int(prep).to_bytes(2, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def sample_born(rho, basis, shots: int, seed: int,
                preparation: str = "state", basis_label: str = "basis"):
    """Multinomial draw from the Born distribution of a rank-1 PVM.

    Returns one ``ShotRecord`` per outcome; counts sum to ``shots``.
    """
    if shots < 1:
        raise BadSpec(f"shots must be >= 1, got {shots}")
    mat = as_state_matrix(rho)
    b = require_basis(basis, mat.shape[0])
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, _clipped_probs(mat, b))
    return [
        ShotRecord(preparation, basis_label, outcome, int(c))
        for outcome, c in enumerate(counts)
    ]


def _measurement_rotation(proj: np.ndarray) -> np.ndarray:
    """Exact phase unitary ``exp(-i proj pi/2)`` (diagonal in the projector's
    eigenbasis)."""
    return np.eye(proj.shape[0], dtype=complex) + (np.exp(-1j * np.pi / 2) - 1.0) * proj


def _binary_post_state(rho_mat: np.ndarray, proj: np.ndarray) -> np.ndarray:
    q = np.eye(proj.shape[0]) - proj
    return proj @ rho_mat @ proj + q @ rho_mat @ q


def _two_prep_counts(rho_mat, proj, basis_y, shots_pair, master_seed, x_index,
                     sink=None, tag=""):
    """Sampled outcome counts for the two rotated preparations."""
    v = _measurement_rotation(proj)
    preps = (
        ("state", v @ rho_mat @ linalg.dagger(v)),
        ("measured", v @ _binary_post_state(rho_mat, proj) @ linalg.dagger(v)),
    )
    counts = []
    for prep_idx, ((prep_name, prep_mat), shots) in enumerate(zip(preps, shots_pair)):
        rng = np.random.default_rng(
            derived_seed(master_seed, basis_y, x_index, prep_idx)
        )
        c = rng.multinomial(shots, _clipped_probs(prep_mat, basis_y))
        counts.append(c)
        if sink is not None:
            for outcome, n in enumerate(c):
                sink.append(
                    ShotRecord(f"x{x_index}:{prep_name}", tag or f"x{x_index}",
                               outcome, int(n))
                )
    return counts


def estimate_kd_imag(rho, basis_a, basis_y, x_index: int, y_index: int,
                     shots: int, seed: int) -> WeakValueEstimate:
    """Unbiased estimate of the imaginary part of one marginal-form table cell
    of a ``DensityOperator`` or ``BipartitePureState``.

    Shots split evenly across the two preparations; the estimator is half the
    difference of the empirical probabilities of outcome ``y_index``, and the
    reported standard error is the binomial propagation of both halves. The
    estimate is stored in the imaginary part of ``value``.
    """
    if shots < 2:
        raise BadSpec(f"shots must be >= 2, got {shots}")
    mat = as_state_matrix(rho)
    a = require_basis(basis_a, rho.dims.da)
    proj = linalg.embed_local(linalg.projectors(a)[[x_index]], rho.dims.as_tuple())[0]
    y = require_basis(basis_y, mat.shape[0])
    n1 = shots // 2
    n2 = shots - n1
    c1, c2 = _two_prep_counts(mat, proj, y, (n1, n2), seed, x_index)
    f1 = c1[y_index] / n1
    f2 = c2[y_index] / n2
    est = (f1 - f2) / 2.0
    se = 0.5 * np.sqrt(f1 * (1 - f1) / n1 + f2 * (1 - f2) / n2)
    return WeakValueEstimate(complex(0.0, est), 0.0, float(se), shots)


def sampled_max_nonreality(rho_mat: np.ndarray, dims, basis_a: np.ndarray,
                           shots_per_cell: int, master_seed: int,
                           sink=None) -> float:
    """Sampled counterpart of the analytic per-basis nonreality supremum.

    For each first-basis outcome the optimal second basis is computed
    classically from the state, and the cell imaginary parts entering the sum
    are taken from finite two-preparation statistics only.
    """
    projs = linalg.embed_local(linalg.projectors(basis_a), dims)
    bases_y = optimal_second_basis(rho_mat, projs)
    total = 0.0
    for x, (proj, basis_y) in enumerate(zip(projs, bases_y)):
        c1, c2 = _two_prep_counts(
            rho_mat, proj, basis_y, (shots_per_cell, shots_per_cell),
            master_seed, x, sink=sink, tag=f"x{x}:optimal",
        )
        est = (c1 / shots_per_cell - c2 / shots_per_cell) / 2.0
        total += float(np.abs(est).sum())
    return total


def sampled_entanglement(state: BipartitePureState, shots_per_cell: int,
                         config: OptimizerConfig | None = None):
    """Estimate the pure-state entanglement value from sampled statistics.

    The outer basis search runs classically on the sampled objective, warm
    started at the marginal eigenbasis from ``np.linalg.eigh``. Returns
    ``(value, basis, diagnostics)``.
    """
    if shots_per_cell < 1:
        raise BadSpec(f"shots_per_cell must be >= 1, got {shots_per_cell}")
    config = config or OptimizerConfig(restarts=4, max_iters=150)
    dims = state.dims.as_tuple()
    mat = state.outer()
    objective = lambda basis: sampled_max_nonreality(
        mat, dims, basis, shots_per_cell, config.seed
    )
    warm = np.linalg.eigh(linalg.partial_trace(mat, dims, keep="A"))[1]
    basis, value, diag = minimize_over_bases(objective, warm, config)
    return value, basis, diag
