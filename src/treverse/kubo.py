"""Canonical (Kubo) correlators on finite spin systems by exact diagonalization.

The lambda integral in the correlator is done analytically in the energy
eigenbasis: the matrix-element weight is (e^{beta d} - 1)/(beta d) with
d the level gap, evaluated through the overflow-safe equivalent form
(rho_n - rho_m)/(beta (E_m - E_n)) and its d -> 0 limit rho_m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .spin import antiunitary_act, pauli_vector

MAX_SITES = 6
HERMITICITY_TOL = 1e-13
COMMUTATION_TOL = 1e-11
SIGNATURE_TOL = 1e-10
REALITY_TOL = 1e-10
DEGENERATE_GAP = 1e-12


class SignatureError(ValueError):
    """Observable has no definite parity under the given time reversal."""


def site_operator(op_2x2: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-site 2x2 operator into the 2^n-dimensional product space."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside 0..{n - 1}")
    out = np.ones((1, 1), dtype=complex)
    for j in range(n):
        out = np.kron(out, op_2x2 if j == site else np.eye(2))
    return out


@dataclass(frozen=True)
class SpinSystem:
    """n spin-1/2 sites with per-site fields, couplings, and optional exchange.

    H = -sum_j q_j sigma_j . b_j + sum_{j<k} J_jk sigma_j . sigma_k
    """

    site_fields: np.ndarray            # (n, 3)
    couplings: np.ndarray | None = None   # (n,), default all ones
    exchange: dict = field(default_factory=dict)  # {(j, k): J}

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.site_fields, dtype=float))
        if b.shape[1] != 3:
            raise ValueError("site_fields must be (n, 3)")
        if b.shape[0] > MAX_SITES:
            raise ValueError(f"at most {MAX_SITES} sites supported")
        q = np.ones(b.shape[0]) if self.couplings is None \
            else np.asarray(self.couplings, dtype=float)
        if q.shape != (b.shape[0],):
            raise ValueError("couplings must have one entry per site")
        object.__setattr__(self, "site_fields", b)
        object.__setattr__(self, "couplings", q)

    @property
    def n(self) -> int:
        return self.site_fields.shape[0]

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def hamiltonian(self) -> np.ndarray:
        """H, assembled on the first call; every call returns that read-only array."""
        return self._hamiltonian

    @cached_property
    def _hamiltonian(self) -> np.ndarray:
        sig = pauli_vector()
        h = np.zeros((self.dim, self.dim), dtype=complex)
        for j in range(self.n):
            zeeman = np.tensordot(self.site_fields[j], sig, axes=(0, 0))
            h -= self.couplings[j] * site_operator(zeeman, j, self.n)
        for (j, k), coupling in sorted(self.exchange.items()):
            if not (0 <= j < self.n and 0 <= k < self.n and j != k):
                raise ValueError(f"bad exchange pair {(j, k)}")
            for axis in range(3):
                h += coupling * (site_operator(sig[axis], j, self.n)
                                 @ site_operator(sig[axis], k, self.n))
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise ValueError("assembled Hamiltonian is not Hermitian")
        h.flags.writeable = False
        return h


@dataclass(frozen=True)
class ThermalState:
    """Eigendecomposition of H with canonical weights at inverse temperature beta."""

    beta: float
    energies: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, system: SpinSystem, beta: float) -> "ThermalState":
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        energies, vectors = np.linalg.eigh(system.hamiltonian())
        logw = -beta * (energies - energies.min())
        weights = np.exp(logw)
        weights /= weights.sum()
        return cls(beta, energies, vectors, weights)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix; its parity under a time reversal is detected on use."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > SIGNATURE_TOL:
            raise ValueError("observable must be Hermitian")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SpinTimeReversal:
    """Antilinear product operator: per-site unitaries composed with conjugation."""

    site_ops: tuple

    def unitary(self) -> np.ndarray:
        out = np.ones((1, 1), dtype=complex)
        for u in self.site_ops:
            out = np.kron(out, np.asarray(u, dtype=complex))
        return out

    def act(self, operator: np.ndarray) -> np.ndarray:
        """T O T^-1 with T = U K."""
        return antiunitary_act(self.unitary(), np.asarray(operator, dtype=complex))


class CorrelatorValue(NamedTuple):
    value: float
    imag_residual: float


def canonical_correlator(system: SpinSystem, beta: float, phi: Observable,
                         psi: Observable, t: float) -> CorrelatorValue:
    """Kubo canonical correlator <phi(0); psi(t)>.

    Computed in the eigenbasis with the analytic lambda integral; the
    imaginary residual of the assembled double sum is reported and must
    stay below the reality tolerance for Hermitian inputs.
    """
    state = ThermalState.of(system, beta)
    value, imag = _correlator_in_basis(state, phi.matrix, psi.matrix, [t])
    return CorrelatorValue(float(value[0]), float(imag[0]))


def _correlator_in_basis(state: ThermalState, phi: np.ndarray, psi: np.ndarray,
                         times) -> tuple[np.ndarray, np.ndarray]:
    """Real parts and |imaginary parts| of <phi(0); psi(t)> at each of the
    times, from one eigenbasis transform and one set of weights."""
    v = state.vectors
    phi_e = v.conj().T @ phi @ v
    psi_e = v.conj().T @ psi @ v
    e = state.energies
    rho = state.weights
    gap = e[:, None] - e[None, :]                 # gap[m, n] = E_m - E_n
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = (rho[None, :] - rho[:, None]) / (state.beta * gap)
    small = np.abs(gap) <= DEGENERATE_GAP
    weight[small] = np.broadcast_to(rho[:, None], weight.shape)[small]
    # the phase [m, n] multiplies phi_mn psi_nm: time on psi rotates with E_n - E_m
    totals = np.array([np.sum(weight * np.exp(-1j * gap * t) * phi_e * psi_e.T)
                       for t in times], dtype=complex)
    return totals.real, np.abs(totals.imag)


def tr_commutes(system: SpinSystem, tr: SpinTimeReversal) -> bool:
    """True iff T H T^-1 = H for the product operator T = U K."""
    if len(tr.site_ops) != system.n:
        raise ValueError("one site operator per spin is required")
    h = system.hamiltonian()
    return bool(np.max(np.abs(tr.act(h) - h)) <= COMMUTATION_TOL)


def detect_signature(tr: SpinTimeReversal, operator: np.ndarray) -> int:
    """Parity eta with T O T^-1 = eta O; raises SignatureError if undefined."""
    transformed = tr.act(operator)
    for eta in (1, -1):
        if np.max(np.abs(transformed - eta * operator)) <= SIGNATURE_TOL:
            return eta
    raise SignatureError("observable has no definite time-reversal parity")


@dataclass(frozen=True)
class KuboSymmetryReport:
    times: np.ndarray
    lhs: np.ndarray               # <phi(0); psi(t)>
    rhs: np.ndarray               # eta_phi eta_psi <phi(t); psi(0)>
    eta_phi: int
    eta_psi: int
    max_deviation: float
    max_imag_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def verify_kubo_symmetry(system: SpinSystem, tr: SpinTimeReversal,
                         phi: Observable, psi: Observable, times,
                         beta: float = 1.0, tol: float = 1e-8) -> KuboSymmetryReport:
    """Check <phi(0); psi(t)> = eta_phi eta_psi <phi(t); psi(0)> over the grid.

    Refuses to run (raises) when the time grid is empty, when T does not
    commute with H or when either observable lacks a definite signature.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("the time grid is empty")
    if not tr_commutes(system, tr):
        raise ValueError("time-reversal operator does not commute with H")
    eta_phi = detect_signature(tr, phi.matrix)
    eta_psi = detect_signature(tr, psi.matrix)
    # <phi(t); psi(0)> = <phi(0); psi(-t)> by stationarity
    value, imag = _correlator_in_basis(ThermalState.of(system, beta), phi.matrix,
                                       psi.matrix, np.concatenate([times, -times]))
    lhs = value[:times.size]
    rhs = eta_phi * eta_psi * value[times.size:]
    worst_imag = float(np.max(imag))
    dev = float(np.max(np.abs(lhs - rhs)))
    return KuboSymmetryReport(times, lhs, rhs, eta_phi, eta_psi, dev,
                              worst_imag, tol)
