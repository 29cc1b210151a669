"""Test-only exhaustive Hoelder scan, the oracle of vaguelet._holder_sup.

It evaluates every graded separation; the package's scan skips those
whose bound cannot beat the running best and must return the same bits.
"""

import numpy as np


def holder_sup(g: np.ndarray, dtau: float, alpha2: float) -> float:
    """sup over graded pair separations of |g[i+m] - g[i]| / (m dtau)^alpha2."""
    best = 0.0
    m = 1
    while m < len(g):
        step = max(m // 2, 1)
        for sep in (m, min(m + step, len(g) - 1)):
            osc = float(np.max(np.abs(g[sep:] - g[:-sep])))
            best = max(best, osc / (sep * dtau) ** alpha2)
            if sep >= len(g) - 1:
                break
        m *= 2
    return best
