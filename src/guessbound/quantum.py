"""Density matrices, optimal binary measurements, and stored-state distances.

A `StateFamily` couples a prior over inputs x with one density matrix per x
(one read-only `(domain, d, d)` array), modelling information about x kept in
a d-dimensional quantum memory.  One routine validates that array, a single
`DensityMatrix` and a `Povm`'s elements.  The binary-decision optimum and the
induced distance of a predicate value from uniform are evaluated exactly
through the spectrum of the signed mixture sum_x (-1)^{f(x)} P(x) rho_x,
which one kernel builds for every distance entry point.

Exact distances are computed for binary outputs only; for wider outputs the
toolkit offers sampled-measurement lower bounds, clearly labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import FunctionFamily, FunctionTable, _member_blocks
from .numerics import as_hermitian, hermitian_eigensystem, trace_norm
from .probability import Distribution
from .rng import as_generator

PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
POVM_SUM_ATOL = 1e-9

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _validated(matrices, unit_trace: bool) -> np.ndarray:
    """Check a `(count, d, d)` stack at once: Hermitian (then symmetrized), unit
    trace if `unit_trace`, PSD by one batched eigvalsh.  Returned read-only."""
    m = as_hermitian(matrices)
    if m.ndim != 3:
        raise ValueError(f"expected a (count, d, d) stack, got shape {m.shape}")
    if unit_trace:
        traces = np.einsum("xii->x", m).real
        worst = traces[np.abs(traces - 1.0).argmax()]
        if abs(worst - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {worst!r}")
    smallest = np.linalg.eigvalsh(m)[:, 0].min()
    if smallest < -PSD_ATOL:
        element = "density matrix" if unit_trace else "POVM element"
        raise ValueError(f"{element} has negative eigenvalue {smallest:.3e}")
    m.flags.writeable = False
    return m


def _pure_states(vectors) -> np.ndarray:
    """|psi><psi| for every row psi of `vectors`, normalized one vector at a time
    (np.linalg.norm along an axis rounds differently, and reports must not change)."""
    norms = np.array([np.linalg.norm(v) for v in vectors])
    if not norms.all():
        raise ValueError("state vector must be nonzero")
    psi = vectors / norms[:, None]
    return psi[:, :, None] * psi.conj()[:, None, :]


def _to_json(matrices) -> list:
    """Complex matrices as nested lists of [re, im] pairs."""
    return np.stack((matrices.real, matrices.imag), axis=-1).tolist()


def _from_json(blob) -> np.ndarray:
    arr = np.asarray(blob, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", _validated(matrix[None], unit_trace=True)[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        return cls(_pure_states(np.asarray(amplitudes, dtype=complex)[None])[0])

    @classmethod
    def basis_state(cls, index: int, dim: int) -> "DensityMatrix":
        return cls(_pure_states(np.eye(dim, dtype=complex)[[index]])[0])

    @classmethod
    def from_bloch(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=float)
        if v.shape != (3,) or np.linalg.norm(v) > 1.0 + 1e-12:
            raise ValueError("Bloch vector must be a 3-vector of length <= 1")
        m = 0.5 * (np.eye(2, dtype=complex) + v[0] * _PAULI_X + v[1] * _PAULI_Y + v[2] * _PAULI_Z)
        return cls(m)

    def to_json(self) -> list:
        return _to_json(self.matrix)

    @classmethod
    def from_json(cls, blob) -> "DensityMatrix":
        return cls(_from_json(blob))


@dataclass(frozen=True)
class StateFamily:
    """Prior over inputs and the stored states, one read-only `(domain, d, d)` array."""

    prior: Distribution
    states: np.ndarray

    def __post_init__(self):
        states = _validated(self.states, unit_trace=True)
        if len(states) != self.prior.size:
            raise ValueError("one state per prior entry required")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def domain_size(self) -> int:
        return self.prior.size

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "prior": [float(p) for p in self.prior.probs],
            "states": _to_json(self.states),
        }

    @classmethod
    def from_json(cls, blob) -> "StateFamily":
        family = cls(Distribution(np.asarray(blob["prior"])), _from_json(blob["states"]))
        if family.dim != blob["dim"]:
            raise ValueError("serialized dimension does not match the states")
        return family


@dataclass(frozen=True)
class Povm:
    """Finite measurement: PSD elements, one read-only `(outcomes, d, d)` array, summing to I."""

    elements: np.ndarray

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("a POVM needs at least one element")
        elems = _validated(self.elements, unit_trace=False)
        if np.abs(elems.sum(axis=0) - np.eye(elems.shape[-1])).max() > POVM_SUM_ATOL:
            raise ValueError("POVM elements must sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def binary_from_projector(cls, element) -> "Povm":
        e0 = as_hermitian(element)
        return cls((e0, np.eye(e0.shape[0]) - e0))


def _check_binary_instance(q: float, rho0: DensityMatrix, rho1: DensityMatrix):
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"prior must lie in [0, 1], got {q}")
    if rho0.dim != rho1.dim:
        raise ValueError("hypothesis states must share one dimension")


def helstrom_success(q: float, rho0: DensityMatrix, rho1: DensityMatrix) -> float:
    """Optimal expected success probability for deciding rho0 (prior q) vs rho1.

    Equals 1/2 + 1/2 * ||q rho0 - (1-q) rho1||_1 and is achieved by the
    measurement returned by `helstrom_povm`.
    """
    _check_binary_instance(q, rho0, rho1)
    return 0.5 + 0.5 * trace_norm(q * rho0.matrix - (1 - q) * rho1.matrix)


def helstrom_povm(q: float, rho0: DensityMatrix, rho1: DensityMatrix) -> Povm:
    """Binary measurement achieving the optimal decision success.

    Outcome 0 projects onto the nonnegative eigenspace of
    q rho0 - (1-q) rho1; eigenvalues within PSD_ATOL of zero count as
    nonnegative (any assignment of the kernel is optimal).
    """
    _check_binary_instance(q, rho0, rho1)
    w, v = hermitian_eigensystem(q * rho0.matrix - (1 - q) * rho1.matrix)
    keep = v[:, w >= -PSD_ATOL]
    e0 = keep @ keep.conj().T
    return Povm.binary_from_projector(e0)


def povm_success(q: float, rho0: DensityMatrix, rho1: DensityMatrix, povm: Povm) -> float:
    """Expected success of a fixed binary measurement on the decision problem."""
    _check_binary_instance(q, rho0, rho1)
    if len(povm) != 2 or povm.dim != rho0.dim:
        raise ValueError("need a binary POVM of matching dimension")
    p00 = np.einsum("ij,ji->", povm.elements[0], rho0.matrix).real
    p11 = np.einsum("ij,ji->", povm.elements[1], rho1.matrix).real
    return float(q * p00 + (1 - q) * p11)


def _check_predicates(family: StateFamily, predicates):
    if predicates.range_size != 2:
        raise ValueError("exact distances are computed for predicates (range 2) only")
    if predicates.domain_size != family.domain_size:
        raise ValueError("predicate domain must match the state family")


def _mixtures(family: StateFamily, coefficients) -> np.ndarray:
    """sum_x c(x) P(x) rho_x for every row c of `coefficients`; with c = (-1)^f,
    the signed mixture of predicate f.  Every exact distance reads it."""
    weighted = family.prior.probs[:, None, None] * family.states
    return np.einsum("sx,xij->sij", coefficients, weighted)


def _predicate_distances(family: StateFamily, values) -> np.ndarray:
    """Half the trace norm of the signed mixture of every predicate row of `values`."""
    signs = np.where(values == 0, 1.0, -1.0)
    return 0.5 * np.abs(np.linalg.eigvalsh(_mixtures(family, signs))).sum(axis=1)


def predicate_distance(family: StateFamily, predicate: FunctionTable) -> float:
    """Distance of f(X) from uniform given the stored state, optimally measured.

    Exactly half the trace norm of the signed mixture operator, which equals
    the optimal guessing advantage over 1/2.
    """
    _check_predicates(family, predicate)
    return float(_predicate_distances(family, predicate.values[None])[0])


def family_distance(family: StateFamily, predicates: FunctionFamily) -> float:
    """Expected predicate distance over an enumerable predicate family.

    Evaluates d(F(X) | stored state chosen measurement, F) exactly by
    averaging the per-predicate trace-norm distances with the family
    weights.
    """
    _check_predicates(family, predicates)
    weights, values = predicates.support_matrix()
    return float(weights @ _predicate_distances(family, values))


def tetrahedron_family() -> StateFamily:
    """Four pure qubit states at tetrahedron vertices with a uniform prior.

    Every pair has Bloch inner product -1/3 and hence overlap
    tr(rho rho') = 1/3; this family maximizes the balanced-predicate
    distance achievable with a single qubit of storage.
    """
    vectors = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    states = np.stack([DensityMatrix.from_bloch(v).matrix for v in vectors])
    return StateFamily(Distribution.uniform(4), states)


def _haar_unitaries(gaussians) -> np.ndarray:
    """Haar-random unitaries from a `(count, d, d)` complex Gaussian stack: QR with
    each column of Q rotated by the phase of R's diagonal (bare QR is not Haar)."""
    q, r = np.linalg.qr(gaussians)
    diag = np.einsum("tii->ti", r)
    return q * (diag / np.abs(diag))[:, None, :]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR decomposition of a Gaussian matrix."""
    g = rng.normal(size=(2, dim, dim))
    return _haar_unitaries((g[0] + 1j * g[1])[None])[0]


def random_state_family(
    dim: int, domain_size: int, purity: str = "pure", seed=0
) -> StateFamily:
    """Uniform-prior family of random pure or Wishart-mixed states."""
    if dim < 1 or domain_size < 1:
        raise ValueError("dim and domain_size must be positive")
    if purity not in ("pure", "mixed"):
        raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    rng = as_generator(seed)
    if purity == "pure":
        g = rng.normal(size=(domain_size, 2, dim))
        states = _pure_states(g[:, 0] + 1j * g[:, 1])
    else:
        g = rng.normal(size=(domain_size, 2, dim, dim))
        # one product per state: a stacked matmul need not round alike on every BLAS
        grams = [m @ m.conj().T for m in g[:, 0] + 1j * g[:, 1]]
        states = np.stack([gram / gram.trace().real for gram in grams])
    return StateFamily(Distribution.uniform(domain_size), states)


def random_povm_success(
    q: float, rho0: DensityMatrix, rho1: DensityMatrix, trials: int, seed
) -> float:
    """Best decision success over sampled binary measurements.

    Samples random unitary conjugations of computational projectors with
    random two-outcome coarse-grainings, plus the two trivial always-guess
    strategies.  A heuristic optimality witness: never exceeds
    `helstrom_success` and approaches it as trials grow.
    """
    _check_binary_instance(q, rho0, rho1)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = as_generator(seed)
    d = rho0.dim
    g = rng.normal(size=(2, trials, d, d))
    basis = _haar_unitaries(g[0] + 1j * g[1])
    masks = rng.integers(0, 2, size=(trials, d))
    weight0 = np.einsum("tdw,de,tew->tw", basis.conj(), rho0.matrix, basis).real
    weight1 = np.einsum("tdw,de,tew->tw", basis.conj(), rho1.matrix, basis).real
    successes = q * (masks * weight0).sum(axis=1) + (1 - q) * (
        1.0 - (masks * weight1).sum(axis=1)
    )
    return float(max(successes.max(), q, 1 - q))


def _measurement_bases(dim: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """The computational basis, then `trials` Haar-random bases, as unitary columns."""
    g = rng.normal(size=(trials, 2, dim, dim))
    haar = _haar_unitaries(g[:, 0] + 1j * g[:, 1])
    return np.concatenate([np.eye(dim, dtype=complex)[None], haar])


def sampled_measurement_distance(
    family: StateFamily, functions: FunctionFamily, trials: int, seed
) -> float:
    """Sampled lower bound on the optimally-measured family distance.

    For every function in the (enumerable) family, takes the best of the
    computational-basis measurement and `trials` random projective
    measurements.  Useful for non-binary outputs, where no exact optimum is
    computed; the true distance is at least the returned value.
    """
    if functions.domain_size != family.domain_size:
        raise ValueError("function domain must match the state family")
    if trials < 1:
        raise ValueError("trials must be positive")
    d = family.dim
    bases = _measurement_bases(d, trials, as_generator(seed))
    # outcome[t, x, w] = probability of outcome w measuring rho_x in basis t
    outcome = np.einsum("tdw,xde,tew->txw", bases.conj(), family.states, bases).real
    # weighted[x, (t, w)] = P(x) * outcome[t, x, w]
    weighted = (family.prior.probs[:, None, None] * outcome.transpose(1, 0, 2)).reshape(
        family.domain_size, -1
    )
    weights, values = functions.support_matrix()
    r = functions.range_size
    best = np.empty(len(weights))
    for block in _member_blocks(len(weights), r * weighted.shape[1]):
        rows = values[block]
        # joint[f, z, t, w] = Pr[f(X) = z and outcome w in basis t]
        joint = np.empty((len(rows), r, weighted.shape[1]))
        for z in range(r):
            joint[:, z] = (rows == z) @ weighted
        joint = joint.reshape(len(rows), r, len(bases), d)
        np.clip(joint, 0.0, None, out=joint)
        joint /= joint.sum(axis=(1, 3), keepdims=True)
        joint -= joint.sum(axis=1, keepdims=True) / r
        np.abs(joint, out=joint)
        best[block] = 0.5 * joint.sum(axis=(1, 3)).max(axis=1)
    return float(weights @ best)


def classical_state_family(
    storage: FunctionTable, prior: Distribution, dim: int | None = None
) -> StateFamily:
    """Embed a classical storage function as orthogonal basis states.

    Input x is stored as |storage(x)><storage(x)| in dimension `dim`
    (default: the storage range).  Reading this family optimally recovers
    exactly the classical storage value, so classical devices are a special
    case of quantum ones.
    """
    if prior.size != storage.domain_size:
        raise ValueError("prior must match the storage domain")
    if dim is None:
        dim = storage.range_size
    if dim < storage.range_size:
        raise ValueError("dimension too small for the storage range")
    return StateFamily(prior, _pure_states(np.eye(dim, dtype=complex)[storage.values]))
