"""Shared test helpers."""

import numpy as np
import pytest

from percgame import solver
from percgame.sitefield import below, check_seeds


@pytest.fixture
def triangle_rows():
    """rows(n, boundary, grid, seeds): {k: (values, closed)} of one triangle
    sweep, read off its diagonals as they are yielded: diagonal k's
    (P, S, k+1) values and closed bits (None on the boundary diagonal n)."""
    def rows(n, boundary, grid, seeds):
        thresholds = solver._thresholds(grid)
        diagonals = solver._diagonals(n, boundary, thresholds, check_seeds(seeds))
        return {k: (solver._lane_symbols(lanes, len(thresholds)),
                    None if h is None else np.stack([below(h, t) for t in thresholds]))
                for k, h, lanes in diagonals}
    return rows
