"""Binary Shannon entropy."""
from __future__ import annotations

import math

__all__ = ["binary_entropy"]

_LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x*log2(x) - (1-x)*log2(1-x), with H(0) = H(1) = 0.

    The (1-x)*log2(1-x) term is evaluated through log1p so that arguments
    near 0 keep full relative precision.

    Raises:
        ValueError: if x is outside [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {x}")
    return _h(x)


def _h(x: float) -> float:
    """binary_entropy, unchecked: for an argument the caller knows lies in [0, 1]."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log1p(-x) / _LN2)
