"""The CTC prefix scorer that runs the two-state recursion for every candidate.

This is the reference ``robustasr.decode.CtcPrefixScorer`` is tested
against: for every prefix, ``extend`` must give bit-identical prefix and
termination scores, and ``advance`` bit-identical path states for the
kept token. It scores one unpadded (T, V+1) log-prob matrix.
"""

from dataclasses import dataclass

import numpy as np

NEGINF = -np.inf


@dataclass
class PrefixState:
    prefix: tuple[int, ...]
    psi: float  # log P(output begins with prefix)
    r_n: np.ndarray  # (T,) log P(paths collapsing exactly to prefix, non-blank end)
    r_b: np.ndarray  # (T,) same but blank-ending


class ReferencePrefixScorer:
    def __init__(self, logp):
        self.x = np.asarray(logp, dtype=float)
        self.n_frames, width = self.x.shape
        self.blank = width - 1
        self.n_words = width - 1

    def initial_state(self) -> PrefixState:
        r_b = np.cumsum(self.x[:, self.blank])
        r_n = np.full(self.n_frames, NEGINF)
        return PrefixState(prefix=(), psi=0.0, r_n=r_n, r_b=r_b)

    def extend(self, state: PrefixState):
        """``(psi, eos_score, r_n, r_b)`` with (T, V) path states of every
        extended hypothesis."""
        n, v = self.n_frames, self.n_words
        xw = self.x[:, :v]
        xb = self.x[:, self.blank]
        with np.errstate(invalid="ignore"):
            r_sum = np.logaddexp(state.r_b, state.r_n)
        phi = np.repeat(r_sum[:, None], v, axis=1)
        if state.prefix:
            phi[:, state.prefix[-1]] = state.r_b
        r_n = np.full((n, v), NEGINF)
        r_b = np.full((n, v), NEGINF)
        if not state.prefix:
            r_n[0] = xw[0]
        psi = r_n[0].copy()
        with np.errstate(invalid="ignore"):
            for t in range(1, n):
                r_n[t] = xw[t] + np.logaddexp(r_n[t - 1], phi[t - 1])
                r_b[t] = xb[t] + np.logaddexp(r_b[t - 1], r_n[t - 1])
                psi = np.logaddexp(psi, phi[t - 1] + xw[t])
        eos_score = float(np.logaddexp(state.r_b[-1], state.r_n[-1]))
        return psi, eos_score, r_n, r_b

    def advance(self, state: PrefixState, token: int, psi, r_n, r_b) -> PrefixState:
        return PrefixState(prefix=state.prefix + (token,),
                           psi=float(psi[token]),
                           r_n=r_n[:, token].copy(),
                           r_b=r_b[:, token].copy())
