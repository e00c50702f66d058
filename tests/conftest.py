import math

import numpy as np
import pytest
from hypothesis import strategies as st

from heisensim import Direction


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_direction(rng) -> Direction:
    """Uniform direction on the sphere."""
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    return Direction(theta, phi)


#: a polar angle at either pole, so exact zeros and carried rounding noise
#: occur, or anywhere between
polar_angles = st.one_of(st.just(0.0), st.just(math.pi), st.floats(0.0, math.pi))
directions = st.builds(Direction, polar_angles, st.floats(0.0, 2 * math.pi))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
