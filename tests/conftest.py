import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_reduced(rng, q_max: int):
    from almost_mathieu.core import reduce_fraction
    from math import gcd

    while True:
        q = int(rng.integers(1, q_max + 1))
        p = int(rng.integers(0, q)) if q > 1 else 0
        if gcd(p, q) == 1 or (p == 0 and q == 1):
            return reduce_fraction(p, q)


def random_complex_mat(rng, det_one: bool):
    from almost_mathieu.core import Mat2

    a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    if det_one:
        # divide by a square root of the determinant: det(m / r) = det / r^2
        r = np.sqrt(complex(a * d - b * c))
        a, b, c, d = a / r, b / r, c / r, d / r
    return Mat2(complex(a), complex(b), complex(c), complex(d))


def plain_discriminant(spec, E):
    """D(E) = Tr Phi_q(E), unscaled from ``monodromy_scaled``'s trace.

    Finite only while log |D| < 709; complex, with a zero imaginary part at
    a real E.
    """
    import math

    from almost_mathieu.core import monodromy_scaled

    m, log_scale = monodromy_scaled(spec, E)
    return m.trace() * math.exp(log_scale)
