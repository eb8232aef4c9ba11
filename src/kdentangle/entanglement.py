"""Entanglement monotone built on optimized quasiprobability nonreality:
closed form for pure states, convex-roof extension for mixed states,
uncertainty-style lower/upper bounds, and the measurement-disturbance form.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec, DimensionMismatch, NotPSD, OptimizerFailed
from .kd import _max_nonreality_mat
from .optimize import OptimizerConfig, SearchDiagnostics, _multistart, minimize_over_bases
from .states import (
    DIM_CAP,
    NORM_TOL,
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    as_state_matrix,
    require_basis,
    schmidt,
)

SNAP = 1e-15
# Largest local dimension the asymmetry bound enumerates: one evaluation stacks
# 2**(d-1) - 1 sign patterns, 511 at the cap (13.5 MB peak per evaluation at
# 10x6, in off-diagonal blocks, plus a 6.6 MB index plan cached per dims).
PATTERN_CAP = 10


def _snapped(lam: np.ndarray) -> np.ndarray:
    """A spectrum clipped to [0, 1], with eigenvalues below ``SNAP`` put at 0
    and one that carries all but ``SNAP`` of the sum put at 1: the square
    roots taken of them amplify boundary roundoff (eps -> sqrt(eps)), and a
    spectrum left with one nonzero eigenvalue is pure however its sum
    rounds."""
    lam = np.clip(lam, 0.0, 1.0)
    lam[lam < SNAP] = 0.0
    lam[lam > lam.sum() - SNAP] = 1.0
    return lam


def _entropy_from_eigenvalues(lam: np.ndarray) -> float:
    """``sum_j sqrt(lam_j (1 - lam_j))`` over the snapped spectrum."""
    lam = _snapped(lam)
    return float(np.sqrt(lam * (1.0 - lam)).sum())


def nonreality_entropy(rho_local) -> float:
    """``sum_j sqrt(lambda_j - lambda_j^2)`` over the eigenvalues of a
    subsystem density matrix.

    Vanishes exactly on pure states and is maximal on the maximally mixed
    state, where it equals ``sqrt(d - 1)``. A ``d x d`` marginal of an accepted
    state has eigenvalues down to ``-NORM_TOL * DIM_CAP / d``; below, ``NotPSD``.
    """
    m = as_state_matrix(rho_local)
    lam = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)
    floor = -NORM_TOL * DIM_CAP / lam.size
    if lam[0] < floor:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below {floor:.3g}")
    return _entropy_from_eigenvalues(lam)


@dataclass(frozen=True)
class PureEntanglementReport:
    value: float
    normalized: float
    schmidt_rank: int
    concurrence: float


def roof_normalization(dims: BipartiteDims) -> float:
    """Normalization constant ``sqrt(min(dA, dB) - 1)`` of the monotone, the
    maximum of the pure-state value over the dims; the pure and the mixed
    reports alike divide by it."""
    return float(np.sqrt(min(dims.da, dims.db) - 1))


def pure_entanglement(state: BipartitePureState) -> PureEntanglementReport:
    """Closed-form entanglement of a pure bipartite state.

    The value is the nonreality entropy of either marginal; the normalized
    value divides it by ``roof_normalization``, and the concurrence is
    ``sqrt(m / (m - 1) (1 - Tr rho_A^2))`` with ``m = min(dA, dB)``. Their
    constants depend on the dims alone, so neither rises under LOCC (a
    majorization of the Schmidt spectrum), and Cauchy-Schwarz over the
    Schmidt rank ``r <= m`` keeps the normalized value at most the
    concurrence. Every field reads the snapped Schmidt spectrum, so each is
    exactly 0 on a product state.
    """
    sd = schmidt(state)
    lam = _snapped(sd.coefficients**2)
    value = _entropy_from_eigenvalues(lam)
    m = min(state.dims.da, state.dims.db)
    purity = float((lam**2).sum())
    conc = min(float(np.sqrt(max(m / (m - 1) * (1.0 - purity), 0.0))), 1.0)
    return PureEntanglementReport(value, value / roof_normalization(state.dims), sd.rank, conc)


# ---------------------------------------------------------------------------
# measurement disturbance
# ---------------------------------------------------------------------------

def _disturbance(m: np.ndarray, projs: np.ndarray) -> float:
    """Total trace distance between ``m`` and its states after the
    nonselective binary measurements of the projectors ``projs``."""
    after = linalg.binary_measurement(m, projs)
    return float(linalg.hermitian_trace_norm(m - after).sum()) / 2.0


def measurement_disturbance(state: BipartitePureState, basis_a) -> float:
    """Total trace distance between the state and its post-measurement states
    under the nonselective binary measurements ``{P_x (x) I, 1 - P_x (x) I}``."""
    a = require_basis(basis_a, state.dims.da)
    projs = linalg.embed_local(linalg.projectors(a), state.dims.as_tuple())
    return _disturbance(state.outer(), projs)


def marginal_disturbance(state: BipartitePureState, basis_a) -> float:
    """Same disturbance sum evaluated on the A marginal alone; never exceeds
    the composite-state disturbance (trace distance contracts under partial
    trace)."""
    a = require_basis(basis_a, state.dims.da)
    return _disturbance(state.density().marginal("A"), linalg.projectors(a))


# ---------------------------------------------------------------------------
# trace-norm asymmetry lower bound
# ---------------------------------------------------------------------------

def _pattern_dim(dims: BipartiteDims, side: str) -> int:
    """Dimension of the searched side; ``BadSpec`` above ``PATTERN_CAP``."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    d = dims.da if side == "A" else dims.db
    if d > PATTERN_CAP:
        raise BadSpec(
            f"side {side} dimension {d} above the sign-pattern cap {PATTERN_CAP} "
            f"({2 ** (d - 1) - 1} patterns per evaluation)"
        )
    return d


@functools.cache
def _plus_sets(d: int) -> tuple:
    """The outcomes signed ``+`` at each vertex of the eigenvalue hypercube
    with outcome 0 signed ``+``: the vertices in ``itertools.product`` order
    of the other signs (``+`` first), the trivial all-plus vertex dropped
    (its commutator vanishes). Built once per ``d``."""
    tails = itertools.product((True, False), repeat=d - 1)
    next(tails)
    return tuple((0,) + tuple(i for i, plus in enumerate(tail, 1) if plus)
                 for tail in tails)


def _pattern_sup(state: np.ndarray, dims, basis: np.ndarray) -> float:
    """Exact supremum of ``||[X (x) I_B, rho]||_1 / 2`` over unit-operator-norm
    Hermitian generators ``X`` on subsystem A with the given eigenbasis: the
    objective is convex on the eigenvalue hypercube, so the supremum sits at
    a sign-pattern vertex ``X = 2 P - I``, with ``P`` the projector onto the
    basis vectors signed ``+``. There ``||[X, rho]||_1 / 2 = ||[P, rho]||_1``,
    so the value is the largest ``commutator_trace_norm`` over the ``+``
    sets, every vertex in one call. ``state`` is the density matrix or, for
    a pure state, its ket (see ``_search_operand``)."""
    norms = linalg.commutator_trace_norm(state, basis, dims,
                                         _plus_sets(basis.shape[0]))
    return float(np.maximum.reduce(norms))


ASYMMETRY_SEARCH = OptimizerConfig(restarts=8, max_iters=600)


def _swapped_matrix(rho: DensityOperator) -> np.ndarray:
    """The state's matrix with its subsystems exchanged, an exact index
    permutation to dims ``(dB, dA)``."""
    da, db = rho.dims.as_tuple()
    return rho.matrix.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, -1)


def _search_operand(mat: np.ndarray) -> np.ndarray:
    """What a basis search hands ``commutator_trace_norm`` for the state
    matrix ``mat``: the ket ``sqrt(q) v`` when ``mat`` has exactly one
    eigenvalue ``q`` above ``RANK_TOL`` (the rank ``mixed_entanglement``
    counts), with ``v`` its eigenvector, else ``mat`` itself. Decided once
    per search.

    The trace is within ``NORM_TOL`` of 1, so a state of rank one has
    ``q >= 1 - NORM_TOL - N RANK_TOL`` and purity ``Tr rho^2 >= q^2``; a
    state whose purity ``sum |rho_ij|^2`` falls below that pays no
    eigen-solve."""
    n = mat.shape[0]
    if np.vdot(mat, mat).real < 1.0 - 2.0 * (NORM_TOL + n * RANK_TOL):
        return mat
    q, v = np.linalg.eigh(mat)
    if np.count_nonzero(q > RANK_TOL) != 1:
        return mat
    return np.sqrt(q[-1]) * v[:, -1]


def asymmetry_lower_bound(rho: DensityOperator, side: str = "A",
                          config: OptimizerConfig = ASYMMETRY_SEARCH):
    """Extremal trace-norm asymmetry of the state relative to local Hermitian
    generators on ``side``: inner supremum exact by sign-pattern enumeration,
    outer infimum over local bases by seeded multistart search, warm started
    at the eigenbasis of ``rho.marginal(side)`` as ``np.linalg.eigh`` returns
    it. Side B is searched as side A of the state with its subsystems
    swapped (``_swapped_matrix``). A state of rank one is scored from its
    ket (``_search_operand``), two vector norms per sign pattern; any other
    state from its matrix, one stacked SVD. The objective is never below 0,
    so an identity or warm basis that scores within ``config.tol`` of 0 is
    returned with no descent.

    Returns ``(value, basis, diagnostics)``.
    """
    _pattern_dim(rho.dims, side)
    da, db = rho.dims.as_tuple()
    mat = rho.matrix
    if side == "B":
        mat, da, db = _swapped_matrix(rho), db, da
    operand = _search_operand(mat)
    # floor 0: the objective is the largest of products of norms or sums of
    # singular values
    return minimize_over_bases(
        rho.marginal(side), lambda basis: _pattern_sup(operand, (da, db), basis), config,
        0.0)


def certified_lower(rho: DensityOperator) -> float:
    """Certified floor of the convex roof: the largest of 0 and three terms,
    each a convex function of ``rho`` that is at most the value ``E`` of
    every pure state, so at most the roof; ``m = min(dA, dB)``:

    - the negativity ``||rho^{T_A}||_1 - 1``, over ``sqrt(m (m - 1))`` when
      ``m > 2``. For a pure state ``E >= sqrt(1 - Tr rho_A^2)``, the
      concurrence over ``sqrt(2)``, and at ``m = 2`` the two Schmidt weights
      make ``E`` the concurrence itself; the concurrence of a mixed state is
      at least ``sqrt(2 / (m (m - 1)))`` times its negativity (Chen,
      Albeverio & Fei, PRL 95, 040504 (2005)), and both sides are convex
      roofs. One ``eigvalsh`` of the partial transpose.
    - the fidelity term ``(m <Phi_m| rho |Phi_m> - 1) / sqrt(m - 1)``, with
      ``Phi_m = sum_{i<m} |i, i> / sqrt(m)``. For Schmidt weights ``lam``,
      ``|<Phi_m|psi>|^2 <= (sum_i sqrt(lam_i))^2 / m``, and Cauchy-Schwarz on
      each ``sum_{j != i} sqrt(lam_j)`` gives ``(sum_i sqrt(lam_i))^2 - 1 <=
      sqrt(m - 1) E``. The term is affine in ``rho`` and exact on every
      isotropic state. One ``m x m`` gather of ``rho``.
    - when ``dA = dB = d``, the swap term ``-Tr(F rho)``. For a pure state
      with amplitude matrix ``M = U S W^dag`` and ``X = U^dag conj(W)``,
      ``<F> = sum_ij s_i s_j X_ij conj(X_ji)``, so ``-<F> <= sum_{i != j}
      s_i s_j |X_ij|^2``; Cauchy-Schwarz on each row, with
      ``sum_j |X_ij|^4 <= 1``, bounds that by ``sum_i s_i sqrt(1 - s_i^2) =
      E(psi)``. It is 1 on every state of the antisymmetric subspace."""
    da, db = rho.dims.as_tuple()
    m = min(da, db)
    r = rho.matrix.reshape(da, db, da, db)
    pt = r.transpose(2, 1, 0, 3).reshape(da * db, -1)
    negativity = float(linalg.hermitian_trace_norm(pt) - 1.0)
    fidelity = float(np.einsum("iijj->", r[:m, :m, :m, :m]).real)  # m <Phi_m| rho |Phi_m>
    terms = [0.0, negativity / (1.0 if m == 2 else np.sqrt(m * (m - 1))),
             (fidelity - 1.0) / np.sqrt(m - 1)]
    if da == db:
        terms.append(-float(np.einsum("abba->", r).real))
    return max(terms)


@dataclass(frozen=True)
class BoundsReport:
    """Both sides' bounds, their tighter pair (max lower, min upper) and the
    certified floor, in printed order. The asymmetry values are no floor of
    the convex roof; ``certified_lower`` is."""

    lower: float
    upper: float
    lower_swapped: float
    upper_swapped: float
    best_lower: float
    best_upper: float
    certified_lower: float


def bounds_report(rho: DensityOperator,
                  config: OptimizerConfig = ASYMMETRY_SEARCH) -> BoundsReport:
    """Both-sided lower (extremal asymmetry) and upper (marginal nonreality
    entropy) bounds, the tighter pair being the max/min across the two sides,
    and the certified floor of the convex roof.

    A state whose dims are equal, and whose swapped matrix and B marginal
    equal the matrix and the A marginal bit for bit, as on ``bell``,
    ``werner:p`` and ``isotropic:d:F``, would hand the side-B search the
    side-A search's arguments, so it is searched once and side B takes side
    A's value."""
    for side in ("A", "B"):
        _pattern_dim(rho.dims, side)
    lower, _, _ = asymmetry_lower_bound(rho, "A", config)
    if (rho.dims.da == rho.dims.db
            and _swapped_matrix(rho).tobytes() == rho.matrix.tobytes()
            and rho.marginal("B").tobytes() == rho.marginal("A").tobytes()):
        lower_b = lower
    else:
        lower_b, _, _ = asymmetry_lower_bound(rho, "B", config)
    upper = nonreality_entropy(rho.marginal("A"))
    upper_b = nonreality_entropy(rho.marginal("B"))
    best_lower, best_upper = max(lower, lower_b), min(upper, upper_b)
    if best_lower > best_upper + OptimizerConfig.tol:
        raise OptimizerFailed(
            f"lower bound {best_lower!r} exceeds upper bound "
            f"{best_upper!r} beyond slack"
        )
    return BoundsReport(lower, upper, lower_b, upper_b, best_lower, best_upper,
                        certified_lower(rho))


# ---------------------------------------------------------------------------
# numeric outer minimization and the convex roof
# ---------------------------------------------------------------------------

NONREALITY_SEARCH = OptimizerConfig(restarts=4, max_iters=400)


def minimized_nonreality(rho: DensityOperator, config: OptimizerConfig = NONREALITY_SEARCH):
    """Numerically minimize the analytic per-basis nonreality supremum over
    local bases of subsystem A. For pure states this reproduces the closed
    form, which the warm start attains: the eigenbasis of the A marginal as
    ``np.linalg.eigh`` returns it (no column phase or order changes a
    projector). The objective is never below 0, so an identity or warm basis
    that scores within ``config.tol`` of 0 is returned with no descent; the
    pure-state closed form is not used as a floor, so the search is checked
    against it rather than stopped by it. A state of rank one is scored from
    its ket (``_search_operand``), two vector norms per outcome; any other
    state from its matrix, one stacked SVD.

    Returns ``(value, basis, diagnostics)``.
    """
    dims = rho.dims.as_tuple()
    operand = _search_operand(rho.matrix)
    # floor 0: the objective is half a sum of products of norms or of
    # singular values
    return minimize_over_bases(
        rho.marginal("A"), lambda basis: _max_nonreality_mat(operand, dims, basis),
        config, 0.0)


def _marginal_entropy_functional(dims: BipartiteDims):
    """Weighted pure-state value of a ``(k, N)`` stack of unnormalized rows,
    ``(k,)`` out: ``|psi|^2 E(psi / |psi|)`` for each row ``psi``, exactly 0
    for a zero row. The value is homogeneous of degree 2, so a convex-roof
    objective is the plain sum over the rows ``sqrt(p_k) psi_k``. The branch
    is chosen here, once for ``dims``, not on each call.

    With a 2-dimensional side the value is ``2 sqrt(D)``, where
    ``D = det(rho_2)`` of the unnormalized marginal; for a unit vector
    ``D = lam (1 - lam)`` with ``lam`` the smaller marginal eigenvalue.
    Cauchy-Binet gives ``D`` as the sum of the squared moduli of the 2x2
    minors of the amplitude matrix, so nothing cancels. ``D`` is snapped to
    0 below ``SNAP |psi|^4``, the eigenvalue snap rescaled. On 2x2 the one
    minor of a row ``r`` is ``r0 r3 - r2 r1`` and ``D`` is its
    ``re * re + im * im``, in that operand order: it gives the bits of the
    form that 2xn and nx2 rows take, which sums each minor twice, once from
    each side of the antisymmetric matrix ``r0 r1^T - r1 r0^T``, and halves
    the sum.
    Larger marginals take the squared singular values ``w`` of the amplitude
    matrix from one stacked SVD, zero those below ``SNAP |psi|^2`` and sum
    ``sqrt(w_j (sum(w) - w_j))``, so a product row, left with one nonzero
    ``w``, gives exactly 0."""
    da, db = dims.da, dims.db

    def norms(rows):
        rows = np.asarray(rows, dtype=complex)
        return rows, np.einsum("ij,ij->i", np.conj(rows), rows).real

    def qubit_pair(rows: np.ndarray) -> np.ndarray:
        rows, norm2 = norms(rows)
        r0, r1, r2, r3 = rows.T
        minor = r0 * r3 - r2 * r1
        det = minor.real * minor.real + minor.imag * minor.imag
        out = 2.0 * np.sqrt(det)
        out[det < SNAP * norm2**2] = 0.0
        return out

    def qubit_side(rows: np.ndarray) -> np.ndarray:
        rows, norm2 = norms(rows)
        m = rows.reshape(-1, da, db)
        if db == 2:
            m = m.transpose(0, 2, 1)
        outer = m[:, 0, :, None] * m[:, 1, None, :]
        minors = np.ascontiguousarray(outer - outer.transpose(0, 2, 1))
        minors = minors.reshape(len(m), -1).view(float)
        det = 0.5 * np.add.reduce(minors * minors, -1)
        out = 2.0 * np.sqrt(det)
        out[det < SNAP * norm2**2] = 0.0
        return out

    def singular_values(rows: np.ndarray) -> np.ndarray:
        rows, norm2 = norms(rows)
        w = np.linalg.svd(rows.reshape(-1, da, db), compute_uv=False) ** 2
        w[w < SNAP * norm2[:, None]] = 0.0
        return np.add.reduce(np.sqrt(w * (np.add.reduce(w, -1, keepdims=True) - w)), -1)

    if (da, db) == (2, 2):
        return qubit_pair
    return qubit_side if 2 in (da, db) else singular_values


RANK_TOL = 1e-12
TERM_WEIGHT_FLOOR = 1e-12
# Most decomposition terms the roof searches, so also the largest rank it takes.
ROOF_CAP = 16
# the roof's budget is the dataclass default: 32 restarts of 2000 iterations
ROOF_SEARCH = OptimizerConfig()


@dataclass(frozen=True)
class ConvexRoofResult:
    """Minimal decomposition average found, with the achieving decomposition,
    the decomposition size searched and the ``certified_lower`` floor the
    value was checked against."""

    value: float
    probabilities: np.ndarray
    pure_states: list
    diagnostics: SearchDiagnostics
    terms: int
    certified_lower: float


def mixed_entanglement(rho: DensityOperator, config: OptimizerConfig = ROOF_SEARCH,
                       terms: int | None = None) -> ConvexRoofResult:
    """Convex-roof extension of the pure-state value to a mixed state: the
    least decomposition average ``sum_k p_k E(psi_k)`` found.

    Every decomposition of size ``terms`` is the rows of ``u[:, :rank] @ rows``
    for some ``terms x terms`` unitary ``u``, with ``rows`` the eigenvectors
    scaled by the square roots of their eigenvalues. On the unnormalized rows
    ``sqrt(p_k) psi_k`` the average is the plain sum of one
    ``_marginal_entropy_functional`` call, the cost of ``u`` that
    ``_multistart`` minimizes. Its ``identity`` start is the
    eigendecomposition, so the result never exceeds that average. A state of
    rank 1 has no other decomposition and is not searched: 0 iterations,
    ``best_start`` ``identity`` and ``converged`` true. Nor is a state whose
    eigendecomposition average is within ``OptimizerConfig.tol`` of
    ``certified_lower``, which certifies it optimal (the antisymmetric states;
    a separable state whose eigenvectors are product states): the driver
    returns that start point, with the same diagnostics, before any descent.

    The default size is ``min(2 * rank, ROOF_CAP)``: the search over the
    ``terms * (terms - 1)`` rotation angles stops converging within the
    iteration budget well before the ``rank**2`` purification bound, so larger
    decompositions must be requested explicitly, up to ``ROOF_CAP``. A state
    of rank above ``ROOF_CAP`` has no decomposition that small (``BadSpec``).

    The result is rejected (``OptimizerFailed``) if its weights do not sum to
    1, if its terms do not reassemble the state, or if it exceeds the marginal
    nonreality entropy of either side or falls below ``certified_lower``
    beyond ``OptimizerConfig.tol`` slack. A correct decomposition average can
    do neither of the last two: the eigendecomposition start already sits at
    or below that concave envelope, and no decomposition goes below the
    certified floor. The floor, the largest of the negativity, fidelity and
    swap terms, is kept in the result, so ``value - certified_lower`` is a
    certified bound on how far the value can sit above the roof.

    The extremal-asymmetry quantity is *not* enforced as a floor here: it can
    sit strictly above the convex roof (e.g. separable states with no locally
    commuting basis), so it is reported by ``bounds_report`` but not used to
    reject results.
    """
    q, evecs = np.linalg.eigh(rho.matrix)
    keep = q > RANK_TOL
    q, evecs = q[keep], evecs[:, keep]
    rank = int(q.size)
    if rank > ROOF_CAP:
        raise BadSpec(f"state rank {rank} above the terms cap {ROOF_CAP}")
    k_terms = int(terms) if terms is not None else min(2 * rank, ROOF_CAP)
    if k_terms < rank:
        raise BadSpec(f"terms {k_terms} below state rank {rank}")
    if k_terms > ROOF_CAP:
        raise BadSpec(f"terms {k_terms} above the cap {ROOF_CAP}")
    rows = (evecs * np.sqrt(q)).T
    functional = _marginal_entropy_functional(rho.dims)

    def cost(u):
        return float(np.add.reduce(functional(u[:, :rank].dot(rows))))

    floor = certified_lower(rho)
    if rank == 1:
        u = np.eye(k_terms)
        value, diag = cost(u), SearchDiagnostics(config.restarts, "identity", 0, True)
    else:
        value, u, diag = _multistart(cost, k_terms, {"identity": None}, config, floor)

    psi = u[:, :rank].dot(rows)
    p = (psi.real**2 + psi.imag**2).sum(axis=1)
    kept = p >= TERM_WEIGHT_FLOOR
    probs = p[kept]
    pure_states = [BipartitePureState(rho.dims, row / np.linalg.norm(row))
                   for row in psi[kept]]
    if abs(probs.sum() - 1.0) > 1e-9:
        raise OptimizerFailed(f"decomposition weights sum to {float(probs.sum())!r}")
    if linalg.trace_norm(psi.T @ psi.conj() - rho.matrix) > 1e-8:
        raise OptimizerFailed("decomposition does not reassemble the input state")
    upper = min(
        nonreality_entropy(rho.marginal("A")),
        nonreality_entropy(rho.marginal("B")),
    )
    slack = OptimizerConfig.tol
    if value > upper + slack:
        raise OptimizerFailed(
            f"convex-roof value {value!r} exceeds the marginal-entropy "
            f"bound {upper!r} beyond slack {slack:g}"
        )
    if value < floor - slack:
        raise OptimizerFailed(
            f"convex-roof value {value!r} is below the certified floor "
            f"{floor!r} beyond slack {slack:g}"
        )
    return ConvexRoofResult(value, probs, pure_states, diag, k_terms, floor)


def wootters_concurrence(rho) -> float:
    """Two-qubit mixed-state concurrence ``max(0, s_1 - s_2 - s_3 - s_4)``
    from the descending singular values ``s`` of ``R^T (sy (x) sy) R``, where
    the columns of ``R`` are the eigenvectors scaled by the square roots of
    their (clipped) eigenvalues. These are the square roots of the spectrum of
    the non-Hermitian ``rho rho~`` (Wootters, PRL 80, 2245 (1998)), found
    without its eigen-solve, whose roundoff on a pure state reaches 1e-8."""
    m = as_state_matrix(rho)
    if m.shape != (4, 4):
        raise DimensionMismatch(f"two-qubit matrix required, got {m.shape}")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    q, v = np.linalg.eigh(m)
    r = v * np.sqrt(np.clip(q, 0.0, None))
    s = np.linalg.svd(r.T @ np.kron(sy, sy) @ r, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))
