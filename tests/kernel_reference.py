"""The Legendre kernel from the library hypergeometric, for the tests that
check the Airy/Bessel kernel against it; the package itself needs no
scipy."""

import numpy as np
import scipy.special


def legendre_kernel_reference(nu: float, p) -> np.ndarray:
    """Reference values of P_{nu-1/2}(1 + 2p) = 2F1(1/2-nu, 1/2+nu; 1; -p)."""
    return scipy.special.hyp2f1(0.5 - nu, 0.5 + nu, 1.0, -np.asarray(p, dtype=float))
