"""Scalar reference trial of the reset-at-zero CUSUM families, in plain numpy.

One trial at a time, from raw observations and their log-likelihood ratios,
with pair-by-pair gossip and no lane bookkeeping: an oracle in law for
`runcons.montecarlo.page_run_lengths`, which shares neither its sampler nor
its batched gossip with this code.
"""

import numpy as np

from runcons.stats import llr_nonlinearity


def run_length(model, family, gamma, under, max_n, rng, M, pairs=None, v=1, node=0) -> int:
    """First slot at which one trial's statistic reaches gamma; 0 if none by max_n.

    family is "centralized" (one CUSUM of the summed increments), "single"
    (sensor 0 alone), "bank" (M CUSUMs, alarm at the first) or "running"
    (each node adds M times its own increment, the network gossips v
    uniformly drawn pairs of `pairs`, then every node resets at zero).
    """
    llr = llr_nonlinearity(model)
    dist = model.null if under == "null" else model.alt
    state = np.zeros(M)
    for n in range(1, max_n + 1):
        z = llr(dist.sample(rng, M))
        if family == "centralized":
            state[0] = max(0.0, state[0] + z.sum())
            alarm = state[0] >= gamma
        elif family == "single":
            state[0] = max(0.0, state[0] + z[0])
            alarm = state[0] >= gamma
        elif family == "bank":
            state = np.maximum(0.0, state + z)
            alarm = bool((state >= gamma).any())
        else:
            state = state + M * z
            if M > 1:
                for i, j in pairs[rng.integers(0, len(pairs), size=v)]:
                    state[i] = state[j] = 0.5 * (state[i] + state[j])
            state = np.maximum(0.0, state)
            alarm = state[node] >= gamma
        if alarm:
            return n
    return 0
