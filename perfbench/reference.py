"""Reference evolution written from the rule text, independent of qca2's compiler.

One update is a basis-index permutation (the interaction phase: c_j ^= AND of
the s-bits of j's neighbours, a phantom neighbour pinned by the boundary)
followed by one 4x4 unitary in every cell (the evaluation phase).  Cell j
holds c_j at bit 2j and s_j at bit 2j+1, so a cell's local index is 2*s + c.
"""

from __future__ import annotations

import math

import numpy as np

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_CN = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CELL_UNITARIES = {
    "identity": np.eye(4, dtype=np.complex128),
    "h_both": np.kron(_H, _H),
    "h_s_then_cn": _CN @ np.kron(_H, np.eye(2)),
}

# Which neighbour offsets drive c_j under each rule.
_NEIGHBOURS = {"right": (-1,), "left": (1,), "both": (-1, 1)}


def ry_h_rz(a: float, b: float) -> np.ndarray:
    """Ry(a) on s tensored with H·Rz(b) on c: a non-Clifford cell unitary."""
    ry = np.array(
        [[math.cos(a / 2), -math.sin(a / 2)], [math.sin(a / 2), math.cos(a / 2)]],
        dtype=np.complex128,
    )
    rz = np.diag([np.exp(-0.5j * b), np.exp(0.5j * b)])
    return np.kron(ry, _H @ rz)


def interaction_permutation(n_cells: int, rule: str, boundary: str) -> np.ndarray:
    """Image of every basis index under the interaction phase.

    The map only flips c-bits as a function of unchanged s-bits, so it is
    its own inverse: ``psi[perm]`` applies it to a state vector.
    """
    k = np.arange(4**n_cells, dtype=np.int64)
    image = k.copy()
    for j in range(n_cells):
        fires = np.ones(k.size, dtype=bool)
        for offset in _NEIGHBOURS[rule]:
            nb = j + offset
            if boundary == "cyclic":
                fires &= ((k >> (2 * (nb % n_cells) + 1)) & 1).astype(bool)
            elif 0 <= nb < n_cells:
                fires &= ((k >> (2 * nb + 1)) & 1).astype(bool)
            elif boundary == "const0":
                fires[:] = False
        image ^= fires.astype(np.int64) << (2 * j)
    return image


def evolve(
    n_cells: int,
    rule: str,
    boundary: str,
    cell_unitary: np.ndarray,
    initial: int,
    n_steps: int,
) -> np.ndarray:
    """Probability matrix, one column per full update, column 0 the initial state."""
    perm = interaction_permutation(n_cells, rule, boundary)
    psi = np.zeros(4**n_cells, dtype=np.complex128)
    psi[initial] = 1.0
    out = np.empty((psi.size, n_steps + 1))
    out[:, 0] = np.abs(psi) ** 2
    for t in range(1, n_steps + 1):
        psi = psi[perm]
        for j in range(n_cells):
            view = psi.reshape(4 ** (n_cells - 1 - j), 4, 4**j)
            psi = np.matmul(cell_unitary, view).reshape(-1)
        out[:, t] = np.abs(psi) ** 2
    return out


def dense_columns(op: np.ndarray, initial: int, n_steps: int) -> np.ndarray:
    """Probability matrix from a dense one-update operator applied step by step."""
    psi = np.zeros(op.shape[0], dtype=np.complex128)
    psi[initial] = 1.0
    out = np.empty((psi.size, n_steps + 1))
    out[:, 0] = np.abs(psi) ** 2
    for t in range(1, n_steps + 1):
        psi = op @ psi
        out[:, t] = np.abs(psi) ** 2
    return out


def lag_deviation(matrix: np.ndarray, p: int) -> float:
    """``max |M[:, :T-p] - M[:, p:]|``, the quantity qca2's period search
    compares against its tolerance for lag p."""
    return float(np.max(np.abs(matrix[:, : matrix.shape[1] - p] - matrix[:, p:])))


def lag_screen(matrix: np.ndarray) -> np.ndarray:
    """Lower bound on lag_deviation for every lag p = 1..(T-1)//2 at O(N*T)
    cost: the deviation between column 0 and column p alone."""
    n_cols = matrix.shape[1]
    lags = np.arange(1, (n_cols - 1) // 2 + 1)
    return np.max(np.abs(matrix[:, lags] - matrix[:, :1]), axis=0)
