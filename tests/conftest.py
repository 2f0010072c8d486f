import numpy as np
import pytest

from qca2 import analysis


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20040209)


@pytest.fixture
def twin_runs(monkeypatch):
    """(lag, pairs) of every lagged twin `analysis.search_period` runs."""
    runs = []
    twin = analysis._twin

    def spy(evolution, lag, n_pairs, tol):
        runs.append((lag, n_pairs))
        return twin(evolution, lag, n_pairs, tol)

    monkeypatch.setattr(analysis, "_twin", spy)
    return runs
