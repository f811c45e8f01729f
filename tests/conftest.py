import numpy as np
import pytest

from lagcheck.jets import jet_einsum
from reference import symplectic_j_matrix


@pytest.fixture
def turn_first():
    """turn(phi, t): the (2m,) ambient jet `phi` with its first complex
    coordinate multiplied by exp(i t), t a scalar jet."""

    def turn(phi, t):
        first = np.zeros((phi.shape[0], 1))
        first[:2] = 1.0
        J = symplectic_j_matrix(phi.shape[0] // 2)
        turned = phi * t.cos() + jet_einsum("cd,d->c", J, phi) * t.sin()
        return turned.scaled(first) + phi.scaled(1.0 - first)

    return turn
