"""Reference algorithms the benchmark checks the program's outputs against.

They are written out plainly in log space, independent of the package's
scaled and batched kernels, and are run only on small subsamples.
"""

import numpy as np


class LogModel:
    """Log parameters of a DiscreteHMM, taken once per model."""

    def __init__(self, hmm):
        with np.errstate(divide="ignore"):
            self.log_pi = np.log(hmm.startprob)
            self.log_a = np.log(hmm.transmat)
            self.log_b = np.log(hmm.emissionprob)

    def forward(self, obs):
        """log P(obs): alpha_j(t) = logsumexp_i(alpha_i(t-1) + log a_ij) + log b_j(o_t)."""
        alpha = self.log_pi + self.log_b[:, obs[0]]
        for o in obs[1:]:
            alpha = np.logaddexp.reduce(alpha[:, None] + self.log_a, axis=0) + self.log_b[:, o]
        return float(np.logaddexp.reduce(alpha))

    def viterbi(self, obs):
        """Log probability of the best state path."""
        delta = self.log_pi + self.log_b[:, obs[0]]
        for o in obs[1:]:
            delta = np.max(delta[:, None] + self.log_a, axis=0) + self.log_b[:, o]
        return float(np.max(delta))

    def path_score(self, path, obs):
        """Log probability of one state path together with the observations."""
        total = self.log_pi[path[0]] + self.log_b[path[0], obs[0]]
        for t in range(1, len(obs)):
            total += self.log_a[path[t - 1], path[t]] + self.log_b[path[t], obs[t]]
        return float(total)


def edit_distance(a, b):
    """Levenshtein distance by the full dynamic-programming table."""
    a, b = list(a), list(b)
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[len(a)][len(b)]


def close(x, y, rel=1e-9):
    """Log-likelihoods agree to a relative tolerance; -inf matches only -inf."""
    if np.isinf(x) or np.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(1.0, abs(y))
