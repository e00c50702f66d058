import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from heisensim import Direction

# hypothesis imports its patch writer, and with it libcst, only when a test
# fails; libcst's use of the deprecated mypy_extensions.TypedDict then warns,
# and under -W error the report of that failure is lost to an INTERNALERROR.
# Imported here first, with only that warning ignored, the failure is reported.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass


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
