"""The fit CSV that test fixtures hand to ``qbuffer fit``: header t_s,p,sigma,
then one row per point with every value written by ``format(v, '.17g')``."""

import numpy as np

from qbuffer.fitting import SERIES_CSV_HEADER


def series_csv(t, p, sigma=None) -> str:
    """CSV text of the series; sigma is 1.0 at every point when not given."""
    t = np.asarray(t, dtype=float)
    sigma = np.ones_like(t) if sigma is None else sigma
    rows = zip(t, np.asarray(p, dtype=float), np.asarray(sigma, dtype=float))
    return SERIES_CSV_HEADER + "\n" + "".join(
        f"{format(a, '.17g')},{format(b, '.17g')},{format(c, '.17g')}\n" for a, b, c in rows)
