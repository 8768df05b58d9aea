"""Programs that the test modules share; pytest, and ``python tests/<script>.py``, put ``tests/`` on the path."""

import numpy as np

from qwp.programs import from_super, vec


def nonpositive(dim, eps):
    """rho -> (1 + eps) rho - eps Tr(rho) I/d: trace preserving, not positive for eps > 0."""
    flat = vec(np.eye(dim))
    return from_super((1 + eps) * np.eye(dim * dim) - eps * np.outer(flat, flat) / dim)
