"""The synthetic-demand generator as it was before synthgen.generate ran its
latent chain on Python floats and looked the quantile table up in sorted
order, kept as the reference that generate is checked against bit for bit:
the chain steps on numpy float64 scalars, one at a time, and np.interp takes
the queries in chain order.
"""

import numpy as np
from scipy.special import erfc


def generate_values(stats, length, seed):
    """The demand column generate(stats, length, seed) draws, computed the
    old way."""
    rng = np.random.default_rng(seed)
    rho = stats.lag1_corr
    z = np.empty(length, dtype=np.float64)
    z[0] = rng.standard_normal()
    if length > 1:
        innovations = rng.standard_normal(length - 1)
        scale = np.sqrt(1.0 - rho * rho)
        for t in range(1, length):
            z[t] = rho * z[t - 1] + scale * innovations[t - 1]
    u = 0.5 * erfc(-z / np.sqrt(2.0))
    sv = stats.sorted_values
    if len(sv) == 1:
        return np.full(length, sv[0])
    positions = np.arange(len(sv)) / (len(sv) - 1)
    return np.interp(u, positions, sv)
