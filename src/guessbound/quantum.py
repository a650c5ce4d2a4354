"""Density matrices, optimal binary measurements, and stored-state distances.

A `StateFamily` couples a prior over inputs x with one density matrix per x,
modelling information about x kept in a d-dimensional quantum memory.  The
binary-decision optimum (`helstrom_success`) and the induced distance of a
predicate value from uniform (`predicate_distance`, `family_distance`) are
evaluated exactly through the spectrum of the signed mixture operator.

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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_hermitian(self.matrix)
        if abs(m.trace().real - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix must have unit trace, got {m.trace().real!r}")
        smallest = np.linalg.eigvalsh(m)[0]
        if smallest < -PSD_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    def conjugated(self, unitary) -> "DensityMatrix":
        u = np.asarray(unitary, dtype=complex)
        return DensityMatrix(u @ self.matrix @ u.conj().T)

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        psi = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise ValueError("state vector must be nonzero")
        psi = psi / norm
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def basis_state(cls, index: int, dim: int) -> "DensityMatrix":
        psi = np.zeros(dim, dtype=complex)
        psi[index] = 1.0
        return cls.pure(psi)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_bloch(cls, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=float)
        if v.shape != (3,) or np.linalg.norm(v) > 1.0 + 1e-12:
            raise ValueError("Bloch vector must be a 3-vector of length <= 1")
        m = 0.5 * (np.eye(2, dtype=complex) + v[0] * _PAULI_X + v[1] * _PAULI_Y + v[2] * _PAULI_Z)
        return cls(m)

    def to_json(self) -> list:
        return [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix]

    @classmethod
    def from_json(cls, blob) -> "DensityMatrix":
        arr = np.asarray(blob, dtype=float)
        return cls(arr[..., 0] + 1j * arr[..., 1])


@dataclass(frozen=True)
class StateFamily:
    """Prior over inputs together with the stored state for each input."""

    prior: Distribution
    states: tuple

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) != self.prior.size:
            raise ValueError("one state per prior entry required")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError("all states must share one Hilbert dimension")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def domain_size(self) -> int:
        return self.prior.size

    def state_stack(self) -> np.ndarray:
        """All states as one (domain, dim, dim) array."""
        return np.stack([s.matrix for s in self.states])

    def average_state(self) -> DensityMatrix:
        return DensityMatrix(np.einsum("x,xij->ij", self.prior.probs, self.state_stack()))

    def conjugated(self, unitary) -> "StateFamily":
        return StateFamily(self.prior, tuple(s.conjugated(unitary) for s in self.states))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "prior": [float(p) for p in self.prior.probs],
            "states": [s.to_json() for s in self.states],
        }

    @classmethod
    def from_json(cls, blob) -> "StateFamily":
        states = tuple(DensityMatrix.from_json(s) for s in blob["states"])
        family = cls(Distribution(np.asarray(blob["prior"])), states)
        if family.dim != blob["dim"]:
            raise ValueError("serialized dimension does not match the states")
        return family


@dataclass(frozen=True)
class Povm:
    """Finite measurement: PSD elements summing to the identity."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(as_hermitian(e) for e in self.elements)
        if not elems:
            raise ValueError("a POVM needs at least one element")
        dims = {e.shape[0] for e in elems}
        if len(dims) != 1:
            raise ValueError("all POVM elements must share one dimension")
        for e in elems:
            smallest = np.linalg.eigvalsh(e)[0]
            if smallest < -PSD_ATOL:
                raise ValueError(f"POVM element has negative eigenvalue {smallest:.3e}")
        total = sum(elems)
        if np.abs(total - np.eye(elems[0].shape[0])).max() > POVM_SUM_ATOL:
            raise ValueError("POVM elements must sum to the identity")
        for e in elems:
            e.flags.writeable = False
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def binary_from_projector(cls, element) -> "Povm":
        e0 = as_hermitian(element)
        return cls((e0, np.eye(e0.shape[0]) - e0))

    def outcome_probabilities(self, rho: DensityMatrix) -> Distribution:
        probs = np.array(
            [np.einsum("ij,ji->", e, rho.matrix).real for e in self.elements]
        )
        return Distribution(np.clip(probs, 0.0, None) / probs.sum())


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


def _check_predicate(family: StateFamily, predicate: FunctionTable):
    if predicate.range_size != 2:
        raise ValueError("predicate tables must have range 2")
    if predicate.domain_size != family.domain_size:
        raise ValueError("predicate domain must match the state family")


def signed_mixture(family: StateFamily, predicate: FunctionTable) -> np.ndarray:
    """The Hermitian operator sum_x (-1)^{f(x)} P(x) rho_x."""
    _check_predicate(family, predicate)
    signs = 1.0 - 2.0 * predicate.values
    return np.einsum("x,x,xij->ij", signs, family.prior.probs, family.state_stack())


def predicate_distance(family: StateFamily, predicate: FunctionTable) -> float:
    """Distance of f(X) from uniform given the stored state, optimally measured.

    Exactly half the trace norm of the signed mixture operator, which equals
    the optimal guessing advantage over 1/2.
    """
    return 0.5 * trace_norm(signed_mixture(family, predicate))


def conditional_states(
    family: StateFamily, predicate: FunctionTable
) -> tuple[float, DensityMatrix, DensityMatrix]:
    """Prior weight of f(X)=0 and the stored states conditioned on f(X)=z.

    Rebuilds the binary decision instance whose optimal success probability
    is 1/2 + predicate_distance.  Requires both predicate values to carry
    positive prior mass (otherwise the distance is trivially 1/2).
    """
    _check_predicate(family, predicate)
    stack = family.state_stack()
    sigmas = []
    masses = []
    for z in (0, 1):
        sel = family.prior.probs * (predicate.values == z)
        mass = sel.sum()
        if mass <= 0.0:
            raise ValueError("predicate is constant on the prior's support")
        masses.append(mass)
        sigmas.append(DensityMatrix(np.einsum("x,xij->ij", sel / mass, stack)))
    return float(masses[0]), sigmas[0], sigmas[1]


def family_distance(family: StateFamily, predicates: FunctionFamily) -> float:
    """Expected predicate distance over an enumerable predicate family.

    Evaluates d(F(X) | stored state chosen measurement, F) exactly by
    averaging the per-predicate trace-norm distances with the family
    weights.
    """
    if predicates.range_size != 2:
        raise ValueError("exact distances are computed for predicate families only")
    if predicates.domain_size != family.domain_size:
        raise ValueError("predicate domain must match the state family")
    weights, values = predicates.support_matrix()
    signs = np.where(values == 0, 1.0, -1.0)
    weighted = family.prior.probs[:, None, None] * family.state_stack()
    operators = np.einsum("sx,xij->sij", signs, weighted)
    eigenvalues = np.linalg.eigvalsh(operators)
    return float(weights @ (0.5 * np.abs(eigenvalues).sum(axis=1)))


def family_distance_mc(
    family: StateFamily, predicates: FunctionFamily, samples: int, seed
) -> tuple[float, float]:
    """Monte Carlo estimate of `family_distance` with its standard error."""
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = as_generator(seed)
    draws = np.array(
        [predicate_distance(family, predicates.sample(rng)) for _ in range(samples)]
    )
    return float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(samples))


def tetrahedron_family() -> StateFamily:
    """Four pure qubit states at tetrahedron vertices with a uniform prior.

    Every pair has Bloch inner product -1/3 and hence overlap
    tr(rho rho') = 1/3; this family maximizes the balanced-predicate
    distance achievable with a single qubit of storage.
    """
    vectors = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) / np.sqrt(3)
    states = tuple(DensityMatrix.from_bloch(v) for v in vectors)
    return StateFamily(Distribution.uniform(4), states)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary from the QR decomposition of a Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_state_family(
    dim: int, domain_size: int, purity: str = "pure", seed=0
) -> StateFamily:
    """Uniform-prior family of random pure or Wishart-mixed states."""
    if dim < 1 or domain_size < 1:
        raise ValueError("dim and domain_size must be positive")
    if purity not in ("pure", "mixed"):
        raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    rng = as_generator(seed)
    states = []
    for _ in range(domain_size):
        if purity == "pure":
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            states.append(DensityMatrix.pure(psi))
        else:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            gram = g @ g.conj().T
            states.append(DensityMatrix(gram / gram.trace().real))
    return StateFamily(Distribution.uniform(domain_size), tuple(states))


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
    g = rng.normal(size=(trials, d, d)) + 1j * rng.normal(size=(trials, d, d))
    basis, r = np.linalg.qr(g)
    diag = np.einsum("tii->ti", r)
    basis = basis * (diag / np.abs(diag))[:, None, :]
    masks = rng.integers(0, 2, size=(trials, d))
    weight0 = np.einsum("tdw,de,tew->tw", basis.conj(), rho0.matrix, basis).real
    weight1 = np.einsum("tdw,de,tew->tw", basis.conj(), rho1.matrix, basis).real
    successes = q * (masks * weight0).sum(axis=1) + (1 - q) * (
        1.0 - (masks * weight1).sum(axis=1)
    )
    return float(max(successes.max(), q, 1 - q))


def measured_distance(family: StateFamily, table: FunctionTable, povm: Povm) -> float:
    """Distance of f(X) from uniform when the memory is read with a fixed POVM.

    A lower bound on the optimally-measured distance, valid for any output
    alphabet of f.
    """
    if table.domain_size != family.domain_size:
        raise ValueError("table domain must match the state family")
    if povm.dim != family.dim:
        raise ValueError("measurement dimension must match the state family")
    outcome = np.array(
        [
            [np.einsum("ij,ji->", e, rho.matrix).real for e in povm.elements]
            for rho in family.states
        ]
    )
    joint = np.zeros((table.range_size, len(povm)))
    np.add.at(joint, table.values, family.prior.probs[:, None] * outcome)
    joint = np.clip(joint, 0.0, None)
    joint /= joint.sum()
    return float(0.5 * np.abs(joint - joint.sum(axis=0) / table.range_size).sum())


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
    rng = as_generator(seed)
    d = family.dim
    bases = [np.eye(d, dtype=complex)]
    bases.extend(random_unitary(d, rng) for _ in range(trials))
    stack = family.state_stack()
    # outcome[t, x, w] = probability of outcome w measuring rho_x in basis t
    outcome = np.einsum("tdw,xde,tew->txw", np.conj(bases), stack, bases).real
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
    states = tuple(DensityMatrix.basis_state(int(v), dim) for v in storage.values)
    return StateFamily(prior, states)
