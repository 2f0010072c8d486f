"""Random states and unitaries shared by the test modules."""

import numpy as np


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    # Fix the phase ambiguity so the result is well-conditioned unitary.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A real orthogonal matrix: a unitary whose imaginary parts are all zero."""
    return np.linalg.qr(rng.normal(size=(dim, dim)))[0]
