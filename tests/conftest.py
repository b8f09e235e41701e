"""Test-local views of an oscillator table as dense S x S matrices."""

import numpy as np
import pytest


def _scatter(table, values):
    """The S x S matrix M with M[b, a] = values[a, k] for each state a and
    its neighbour b = table.neighbours[a, k]."""
    size = len(table.states)
    rows = table.neighbours.ravel()
    cols = np.repeat(np.arange(size), 4)
    present = rows >= 0
    matrix = np.zeros((size, size), dtype=complex)
    matrix[rows[present], cols[present]] = np.ravel(values)[present]
    return matrix


@pytest.fixture
def scatter():
    return _scatter


@pytest.fixture
def dense():
    """dense(table) -> (x, y): the table's position matrices, S x S."""
    return lambda table: (_scatter(table, table.x), _scatter(table, 1j * table.y))
