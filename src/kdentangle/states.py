"""Bipartite quantum states: validated types, Schmidt decomposition,
standard constructors, and the input layer of the CLI: state and basis specs,
and the JSON state and basis files, read by one reader under ``FILE_TOL``."""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadSpec, DimensionMismatch, NotUnitary

DIM_CAP = 64
NORM_TOL = 1e-10  # pure norm and density checks alike: every pure state has a density
FILE_TOL = 1e-8
SCHMIDT_CUTOFF = 1e-9
BASIS_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (da, db); composite index is ``i = i_a * db + i_b``."""

    da: int
    db: int

    def __post_init__(self):
        if self.da < 2 or self.db < 2:
            raise BadSpec(f"dims must both be >= 2, got ({self.da}, {self.db})")
        if self.da * self.db > DIM_CAP:
            raise BadSpec(
                f"dims product {self.da * self.db} exceeds cap {DIM_CAP}"
            )

    @property
    def total(self) -> int:
        return self.da * self.db

    def as_tuple(self):
        return (self.da, self.db)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BipartitePureState:
    """Unit-norm amplitude vector over the composite system."""

    dims: BipartiteDims
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.dims.total:
            raise DimensionMismatch(
                f"amplitude length {amps.size} != {self.dims.total}"
            )
        if not np.isfinite(amps.real).all() or not np.isfinite(amps.imag).all():
            raise BadSpec("amplitudes must be finite")
        trace = (amps * np.conj(amps)).sum().real  # as DensityOperator reads it
        if abs(trace - 1.0) > NORM_TOL:
            raise BadSpec(f"state squared norm {float(trace)!r} deviates from 1 beyond {NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def matrix(self) -> np.ndarray:
        """Amplitudes reshaped to a (da, db) coefficient matrix."""
        return self.amplitudes.reshape(self.dims.da, self.dims.db)

    def outer(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def density(self) -> "DensityOperator":
        return DensityOperator(self.dims, self.outer())


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on the composite system."""

    dims: BipartiteDims
    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        n = self.dims.total
        if m.shape != (n, n):
            raise DimensionMismatch(f"matrix shape {m.shape} != ({n}, {n})")
        if np.abs(m - linalg.dagger(m)).max() > NORM_TOL:
            raise BadSpec(f"density matrix is not Hermitian within {NORM_TOL:g}")
        if abs(np.trace(m).real - 1.0) > NORM_TOL or abs(np.trace(m).imag) > NORM_TOL:
            raise BadSpec(f"trace {complex(np.trace(m))!r} deviates from 1 beyond {NORM_TOL:g}")
        w = np.linalg.eigvalsh((m + linalg.dagger(m)) / 2)
        if w[0] < -NORM_TOL:
            raise BadSpec(f"negative eigenvalue {w[0]:.3e} below {-NORM_TOL:g}")
        object.__setattr__(self, "matrix", _freeze(m))

    def marginal(self, side: str = "A") -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.dims.as_tuple(), keep=side)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Descending Schmidt coefficients with local orthonormal bases as columns."""

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    rank: int


def as_density(state) -> DensityOperator:
    """A density operator as given, or a pure state as its projector."""
    return state.density() if isinstance(state, BipartitePureState) else state


def as_pure(state) -> BipartitePureState:
    """A pure state as given, or a density operator of rank 1 within
    ``FILE_TOL`` as its top eigenvector."""
    if isinstance(state, BipartitePureState):
        return state
    w, v = np.linalg.eigh(state.matrix)
    if w[:-1].max(initial=0.0) > FILE_TOL:
        raise BadSpec(
            f"state is not pure: second eigenvalue {w[-2]:.3e} exceeds {FILE_TOL:g}"
        )
    ket = v[:, -1]
    return BipartitePureState(state.dims, ket / np.linalg.norm(ket))


def as_state_matrix(state) -> np.ndarray:
    """Density matrix of a pure or mixed state, or a plain 2-D array as given."""
    if isinstance(state, (BipartitePureState, DensityOperator)):
        return as_density(state).matrix
    return linalg.as_matrix(state)


def require_basis(v, dim: int, tol: float = BASIS_TOL) -> np.ndarray:
    """Validate that the columns of ``v`` form an orthonormal basis of
    dimension ``dim``, to ``tol``."""
    m = linalg.as_matrix(v)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"basis matrix must be square, got {m.shape}")
    if m.shape[0] != dim:
        raise DimensionMismatch(f"basis dimension {m.shape[0]} != expected {dim}")
    gram = linalg.dagger(m) @ m
    dev = np.abs(gram - np.eye(m.shape[0])).max()
    if dev > tol:
        raise NotUnitary(f"columns not orthonormal within {tol:g}: max deviation {dev:.3e}")
    return m


def schmidt(state: BipartitePureState) -> SchmidtDecomposition:
    """Schmidt decomposition via the SVD of the reshaped amplitude matrix.

    The returned coefficients are the descending singular values; ``rank``
    counts coefficients strictly above ``SCHMIDT_CUTOFF``.
    """
    u, s, vh = np.linalg.svd(state.matrix())
    rank = int(np.count_nonzero(s > SCHMIDT_CUTOFF))
    return SchmidtDecomposition(s, u[:, :s.size], vh[:s.size].T, rank)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def max_entangled(d: int) -> BipartitePureState:
    """Uniform-coefficient entangled state on (d, d)."""
    dims = BipartiteDims(d, d)
    amps = np.zeros(dims.total, dtype=complex)
    for k in range(d):
        amps[k * d + k] = 1.0 / np.sqrt(d)
    return BipartitePureState(dims, amps)


def bell_state() -> BipartitePureState:
    return max_entangled(2)


def werner_state(p: float) -> DensityOperator:
    """Two-qubit family ``p |phi+><phi+| + (1 - p) I/4`` for ``p in [0, 1]``."""
    if not 0.0 <= p <= 1.0:
        raise BadSpec(f"werner parameter {p!r} outside [0, 1]")
    phi = bell_state().outer()
    return DensityOperator(BipartiteDims(2, 2), p * phi + (1.0 - p) * np.eye(4) / 4.0)


def isotropic_state(d: int, fidelity: float) -> DensityOperator:
    """``F |Phi_d><Phi_d| + (1 - F) (I - |Phi_d><Phi_d|) / (d^2 - 1)`` on
    (d, d) for ``F in [0, 1]``, with ``Phi_d`` the maximally entangled state;
    invariant under every ``U (x) conj(U)``. At ``d = 2`` it is
    ``werner_state(p)`` with ``F = (1 + 3 p) / 4``."""
    if not 0.0 <= fidelity <= 1.0:
        raise BadSpec(f"isotropic fidelity {fidelity!r} outside [0, 1]")
    phi = max_entangled(d)
    n = phi.dims.total
    rest = np.eye(n) - phi.outer()
    return DensityOperator(phi.dims, fidelity * phi.outer() + (1.0 - fidelity) * rest / (n - 1))


def product_state(dims: BipartiteDims | None = None) -> BipartitePureState:
    dims = dims or BipartiteDims(2, 2)
    amps = np.zeros(dims.total, dtype=complex)
    amps[0] = 1.0
    return BipartitePureState(dims, amps)


def haar_pure(dims: BipartiteDims, seed=0) -> BipartitePureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return BipartitePureState(dims, z / np.linalg.norm(z))


def haar_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d)).conj()


def random_mixed(dims: BipartiteDims, rank: int, seed=0) -> DensityOperator:
    """Rank-``rank`` mixed state as the ancilla marginal of a Haar pure state."""
    if rank < 1:
        raise BadSpec(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    n = dims.total
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    z /= np.linalg.norm(z)
    return DensityOperator(dims, z @ linalg.dagger(z))


def make_state(spec: str, dims: BipartiteDims | None = None, seed: int = 0):
    """Build a state from a builtin spec string.

    Recognized specs: ``bell``, ``max-entangled:d``, ``werner:p``,
    ``isotropic:d:F``, ``product``, ``random-pure:seed``.
    """
    name, sep, arg = spec.partition(":")
    if sep and name in ("bell", "product"):
        raise BadSpec(f"state spec {spec!r}: {name!r} takes no argument")
    try:
        if name == "bell":
            return bell_state()
        if name == "max-entangled":
            return max_entangled(int(arg) if arg else (dims.da if dims else 2))
        if name == "werner":
            return werner_state(float(arg) if arg else 1.0)
        if name == "isotropic":
            d, _, fidelity = arg.partition(":")
            return isotropic_state(int(d), float(fidelity))
        if name == "product":
            return product_state(dims)
        if name == "random-pure":
            return haar_pure(dims or BipartiteDims(2, 2), int(arg) if arg else seed)
    except (ValueError, TypeError) as exc:
        raise BadSpec(f"bad argument in state spec {spec!r}: {exc}") from exc
    raise BadSpec(f"unknown state spec {spec!r}")


def make_basis(spec: str, dim: int) -> np.ndarray:
    """Columns of an orthonormal basis of dimension ``dim`` from a basis spec:
    ``computational``, ``fourier``, ``random:SEED`` (``haar_unitary``), or the
    path to a JSON grid of ``[re, im]`` pairs whose rows are the basis kets.
    A file's kets must be orthonormal within ``FILE_TOL``; they are then
    replaced by the nearest orthonormal basis, ``u v^dag`` of their SVD."""
    name, sep, arg = spec.partition(":")
    if sep and name in ("computational", "fourier"):
        raise BadSpec(f"basis spec {spec!r}: {name!r} takes no argument")
    if name == "computational":
        return np.eye(dim, dtype=complex)
    if name == "fourier":
        j = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    if name == "random":
        try:
            seed = int(arg) if arg else 0
        except ValueError:
            seed = -1
        if seed < 0:
            raise BadSpec(f"bad seed in basis spec {spec!r}")
        return haar_unitary(dim, seed)
    kets = _pairs_to_complex(_read_json(spec, "basis file"), f"basis file {spec!r}")
    try:
        m = require_basis(kets.T, dim, tol=FILE_TOL)
    except (DimensionMismatch, NotUnitary) as exc:
        raise BadSpec(f"basis file {spec!r}: {exc}") from exc
    u, _, vh = np.linalg.svd(m)
    return u @ vh


# ---------------------------------------------------------------------------
# state and basis files
# ---------------------------------------------------------------------------

def _read_json(path, kind: str):
    """The JSON value in the ``kind`` file at ``path``. An unreadable file,
    invalid JSON or UTF-8, a NaN or Infinity token and nesting too deep to
    parse are each a ``BadSpec`` that names ``kind`` and ``path``."""
    label = f"{kind} {str(path)!r}"

    def reject_constant(token):
        raise BadSpec(f"non-finite value {token!r} in {label}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject_constant)
    except OSError as exc:
        raise BadSpec(f"cannot read {label}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadSpec(f"{label} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise BadSpec(f"{label} nests its JSON too deeply") from exc


def _pairs_to_complex(data, shape_desc: str) -> np.ndarray:
    """Nested ``[re, im]`` pairs of JSON numbers as a complex array. Strings,
    booleans and nulls are not numbers, even where numpy would convert them."""
    message = f"data must be nested [re, im] pairs of numbers for {shape_desc}"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadSpec(f"{message}: {exc}") from exc
    if not all(type(x) in (int, float) for x in np.asarray(data, dtype=object).flat):
        raise BadSpec(message)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise BadSpec(f"data must be nested [re, im] pairs for {shape_desc}")
    if not np.isfinite(arr).all():
        raise BadSpec(f"non-finite value in the data for {shape_desc}")
    return arr[..., 0] + 1j * arr[..., 1]


def state_from_json(obj: dict):
    """Validate and construct a state from the parsed file object.

    Invariants are enforced at tolerance ``FILE_TOL``, after which the norm or trace
    is renormalized exactly (and roundoff-negative eigenvalues clipped).
    """
    if not isinstance(obj, dict):
        raise BadSpec("state file must contain a single JSON object")
    for key in ("dims", "kind", "data"):
        if key not in obj:
            raise BadSpec(f"state file missing field {key!r}")
    dims_raw = obj["dims"]
    if (
        not isinstance(dims_raw, (list, tuple))
        or len(dims_raw) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_raw)
    ):
        raise BadSpec(f"dims must be two integer counts, got {dims_raw!r}")
    dims = BipartiteDims(int(dims_raw[0]), int(dims_raw[1]))
    kind = obj["kind"]
    if kind == "pure":
        amps = _pairs_to_complex(obj["data"], "a pure state").reshape(-1)
        if amps.size != dims.total:
            raise BadSpec(f"data length {amps.size} != dims product {dims.total}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > FILE_TOL:
            raise BadSpec(f"norm {float(norm)!r} deviates from 1 beyond {FILE_TOL:g}")
        return BipartitePureState(dims, amps / norm)
    if kind == "density":
        m = _pairs_to_complex(obj["data"], "a density matrix")
        if m.ndim != 2 or m.shape != (dims.total, dims.total):
            raise BadSpec(f"data shape {m.shape} != dims product {dims.total}")
        if np.abs(m - linalg.dagger(m)).max() > FILE_TOL:
            raise BadSpec(f"density data not Hermitian within {FILE_TOL:g}")
        m = (m + linalg.dagger(m)) / 2
        tr = np.trace(m).real
        if abs(tr - 1.0) > FILE_TOL:
            raise BadSpec(f"trace {float(tr)!r} deviates from 1 beyond {FILE_TOL:g}")
        w, v = np.linalg.eigh(m)
        if w[0] < -FILE_TOL:
            raise BadSpec(f"negative eigenvalue {w[0]:.3e} below {-FILE_TOL:g}")
        w = np.clip(w, 0.0, None)
        m = (v * w) @ linalg.dagger(v)
        return DensityOperator(dims, m / np.trace(m).real)
    raise BadSpec(f"kind must be 'pure' or 'density', got {kind!r}")


def state_to_json(state) -> dict:
    if isinstance(state, BipartitePureState):
        data = [[float(z.real), float(z.imag)] for z in state.amplitudes]
        kind = "pure"
    elif isinstance(state, DensityOperator):
        data = [
            [[float(z.real), float(z.imag)] for z in row] for row in state.matrix
        ]
        kind = "density"
    else:
        raise BadSpec(f"unsupported state type {type(state).__name__}")
    return {"dims": [state.dims.da, state.dims.db], "kind": kind, "data": data}


def load_state(path):
    return state_from_json(_read_json(path, "state file"))


def save_state(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_json(state), fh)
        fh.write("\n")
