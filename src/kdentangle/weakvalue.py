"""Synthetic estimation of quasiprobability imaginary parts and of the
entanglement value from finite projective-measurement records.

The imaginary part of a table cell equals half the difference of two Born
probabilities: outcome ``y`` measured on the phase-rotated input state versus
on the phase-rotated post-measurement state of the nonselective binary
measurement of ``P_x (x) I``. Only projective statistics are needed, so the
estimator stays stable where the postselection probability is small.

Both preparations of every first-basis outcome, and their Born distributions,
are built in one stacked pass per evaluation. The multinomial draws stay one
per (outcome, preparation) cell, each from its own generator seeded by a hash
of the master seed, the cell's second basis, the outcome and the
preparation, so records do not depend on evaluation order. The generator
takes the digest as its little-endian 32-bit words, which seed the same
stream as the digest's integer value at less cost. Every draw goes through
one entry that rejects shot counts above ``SHOTS_CAP``, the largest count an
int64 holds.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec
from .kd import optimal_second_basis
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
    std_error_im: float
    shots_used: int

    def __post_init__(self):
        if self.std_error_im < 0:
            raise BadSpec("standard error must be nonnegative")
        if self.shots_used <= 0:
            raise BadSpec("shots_used must be positive")


SHOTS_CAP = int(np.iinfo(np.int64).max)
PREPARATIONS = ("state", "measured")
_QUARTER_TURN = np.exp(-1j * np.pi / 2) - 1.0  # V - I = _QUARTER_TURN * P
_ZERO_WORD = bytes(4)


def _seed_words(digest: bytes) -> np.ndarray:
    """The little-endian ``uint32`` words of ``digest``, trailing zero words
    trimmed but at least one kept: the words ``SeedSequence`` makes of the
    integer ``int.from_bytes(digest, "little")``, so both seed the same
    stream, without the integer's conversion."""
    end = len(digest)
    while end > 4 and digest[end - 4:end] == _ZERO_WORD:
        end -= 4
    return np.frombuffer(digest, dtype="<u4", count=end // 4)


def derived_seeds(master: int, basis: np.ndarray, x: int) -> list[np.ndarray]:
    """Deterministic seeds of the two preparations of first-basis outcome
    ``x``, hashed from the measurement setting, so sampling results do not
    depend on evaluation order. Each seed is the ``_seed_words`` of a 16-byte
    digest."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(int(master)).encode())
    h.update(np.ascontiguousarray(basis).tobytes())
    h.update(int(x).to_bytes(4, "little", signed=False))
    seeds = []
    for prep in range(len(PREPARATIONS)):
        hp = h.copy()
        hp.update(prep.to_bytes(2, "little", signed=False))
        seeds.append(_seed_words(hp.digest()))
    return seeds


def _draw(seed, shots: int, probs: np.ndarray) -> np.ndarray:
    """Multinomial outcome counts of ``shots`` draws; every sampler draws here,
    each cell from its own ``_seed_words``."""
    if shots > SHOTS_CAP:
        raise BadSpec(f"shots {shots} exceed the int64 count cap {SHOTS_CAP}")
    return np.random.default_rng(seed).multinomial(shots, probs)


def _cell_counts(rho_mat, projs, bases_y, shots, master_seed, cells):
    """Outcome counts ``(k, 2, n)`` of both preparations of ``k`` cells.

    Cell ``i`` rotates by ``V = exp(-i P pi/2)`` with ``P = projs[i]``:
    preparation 0 is ``V rho V^dag`` and preparation 1 is
    ``V (P rho P + Q rho Q) V^dag`` with ``Q = I - P``, the nonselective
    binary measurement of ``P``. Both are measured in the basis
    ``bases_y[i]``. The preparations and their Born distributions are built
    for all cells in one stacked pass. Only the draws run per cell:
    ``shots[prep]`` shots each, seeded from ``master_seed``, ``bases_y[i]``
    and the outcome label ``cells[i]``.
    """
    # Counts move with the last bits of the probabilities, so every
    # preparation keeps this operation order; algebraically equal forms such
    # as <V^dag y| sigma |V^dag y> draw other records.
    k, n, _ = projs.shape
    states = np.empty((k, 2, n, n), dtype=complex)
    states[:, 0] = rho_mat
    states[:, 1] = linalg.binary_measurement(rho_mat, projs)
    v = linalg._identity(n) + _QUARTER_TURN * projs
    preps = v[:, None] @ states @ np.conj(v[:, None]).swapaxes(-1, -2)
    born = np.einsum("xiy,xpij,xjy->xpy", np.conj(bases_y), preps, bases_y).real
    p = np.maximum(born, 0.0)
    p /= p.sum(axis=-1, keepdims=True)
    counts = np.empty(p.shape, dtype=np.int64)
    for i, (x, basis_y) in enumerate(zip(cells, bases_y)):
        for prep, seed in enumerate(derived_seeds(master_seed, basis_y, x)):
            counts[i, prep] = _draw(seed, shots[prep], p[i, prep])
    return counts


def estimate_kd_imag(rho, basis_a, basis_y, x_index: int, y_index: int,
                     shots: int, seed: int) -> WeakValueEstimate:
    """Unbiased estimate of the imaginary part of one marginal-form table cell
    of a ``DensityOperator`` or ``BipartitePureState``.

    Shots split evenly across the two preparations; the estimator is half the
    difference of the empirical probabilities of outcome ``y_index``, and the
    reported standard error is the binomial propagation of both halves. The
    estimate is stored in the imaginary part of ``value``. ``x_index`` must
    lie in ``[0, dA)`` and ``y_index`` in ``[0, dA * dB)``. The cell is sampled
    by the same stacked pass as ``sampled_max_nonreality``, as a stack of one.
    """
    if shots < 2:
        raise BadSpec(f"shots must be >= 2, got {shots}")
    mat = as_state_matrix(rho)
    ranges = (("x_index", x_index, rho.dims.da), ("y_index", y_index, mat.shape[0]))
    for name, index, d in ranges:
        if not 0 <= index < d:
            raise BadSpec(f"{name} must be in [0, {d}), got {index}")
    a = require_basis(basis_a, rho.dims.da)
    projs = linalg.embed_local(linalg.projectors(a)[[x_index]], rho.dims.as_tuple())
    y = require_basis(basis_y, mat.shape[0])
    n1 = shots // 2
    n2 = shots - n1
    c1, c2 = _cell_counts(mat, projs, y[None], (n1, n2), seed, [x_index])[0]
    f1 = c1[y_index] / n1
    f2 = c2[y_index] / n2
    est = (f1 - f2) / 2.0
    se = 0.5 * np.sqrt(f1 * (1 - f1) / n1 + f2 * (1 - f2) / n2)
    return WeakValueEstimate(complex(0.0, est), float(se), shots)


def sampled_max_nonreality(rho_mat: np.ndarray, dims, basis_a: np.ndarray,
                           shots_per_cell: int, master_seed: int,
                           sink=None) -> float:
    """Sampled counterpart of the analytic per-basis nonreality supremum.

    For each first-basis outcome the optimal second basis is computed
    classically from the state, in one call of ``optimal_second_basis`` for
    all outcomes, and the cell imaginary parts entering the sum are taken
    from finite two-preparation statistics only. The preparations of every
    outcome are built in one stacked pass; each outcome's two draws keep
    their own seeds. ``sink``, if given, receives one ``ShotRecord`` per
    outcome of each preparation.
    """
    projs = linalg.embed_local(linalg.projectors(basis_a), dims)
    bases_y = optimal_second_basis(rho_mat, projs)
    counts = _cell_counts(
        rho_mat, projs, bases_y, (shots_per_cell, shots_per_cell),
        master_seed, range(len(projs)),
    )
    if sink is not None:
        for x, cell in enumerate(counts.tolist()):
            for prep_name, prep_counts in zip(PREPARATIONS, cell):
                sink.extend(
                    ShotRecord(f"x{x}:{prep_name}", f"x{x}:optimal", outcome, n)
                    for outcome, n in enumerate(prep_counts)
                )
    est = (counts[:, 0] / shots_per_cell - counts[:, 1] / shots_per_cell) / 2.0
    # cumsum adds the per-outcome sums left to right; np.sum pairs them,
    # which can move the last bit of the value
    return float(np.cumsum(np.abs(est).sum(axis=1))[-1])


SAMPLED_SEARCH = OptimizerConfig(restarts=4, max_iters=150)


def sampled_entanglement(state: BipartitePureState, shots_per_cell: int,
                         config: OptimizerConfig = SAMPLED_SEARCH):
    """Estimate the pure-state entanglement value from sampled statistics.

    The outer basis search runs classically on the sampled objective, warm
    started at the eigenbasis of the A marginal from ``np.linalg.eigh``. The
    sampled objective is never below 0, so an identity or warm basis that
    scores within ``config.tol`` of 0 is returned with no descent. Returns
    ``(value, basis, diagnostics)``.
    """
    if shots_per_cell < 1:
        raise BadSpec(f"shots_per_cell must be >= 1, got {shots_per_cell}")
    rho = state.density()
    dims = state.dims.as_tuple()
    # floor 0: the objective is a cumulative sum of absolute values
    return minimize_over_bases(rho.marginal("A"), lambda basis: sampled_max_nonreality(
        rho.matrix, dims, basis, shots_per_cell, config.seed), config, 0.0)
