"""Network latency models.

A latency model maps a ``(src, dst)`` process pair to a one-way message
delay in milliseconds, optionally with jitter. The paper's deployments
(Table 2) are expressed as RTT matrices between *sites* with a 5% standard
deviation; :class:`SiteMatrixLatency` reproduces that. All models return
**one-way** latency (half the RTT).

A model is its :meth:`LatencyModel.pair_params`: the ``(mean, stddev,
floor)`` triple of one directed pair. :meth:`LatencyModel.sample` and
:meth:`LatencyModel.mean` are defined once, from it: one
``rng.gauss(mean, stddev)`` call iff ``stddev != 0``, clamped below at
``floor``. The network asks for the triple once per directed pair and
draws inline with **exactly** that arithmetic and RNG consumption;
``sample()`` is the reference formula the tests compare it against.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: The per-pair sampling recipe: (mean_ms, stddev_ms, floor_ms). A zero
#: stddev means the delay is exactly the mean and no randomness is drawn.
PairParams = Tuple[float, float, float]


class LatencyModel:
    """Base class for one-way latency models."""

    __slots__ = ()

    def pair_params(self, src: int, dst: int) -> PairParams:
        """``(mean, stddev, floor)`` of the one-way delay from src to dst."""
        raise NotImplementedError

    def sample(self, src: int, dst: int, rng: random.Random) -> float:
        """Return a one-way latency in ms for a message from src to dst."""
        mean, stddev, floor = self.pair_params(src, dst)
        if stddev == 0.0:
            return mean
        value = rng.gauss(mean, stddev)
        return value if value > floor else floor

    def mean(self, src: int, dst: int) -> float:
        """Return the mean one-way latency in ms (no jitter)."""
        return self.pair_params(src, dst)[0]


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay_ms`` (one communication step).

    Used by the step-counting experiments for Table 1, where latency must
    be an exact multiple of the communication step.
    """

    __slots__ = ("delay_ms",)

    def __init__(self, delay_ms: float = 1.0) -> None:
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        self.delay_ms = delay_ms

    def pair_params(self, src: int, dst: int) -> PairParams:
        return (self.delay_ms, 0.0, 0.0)

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay_ms}ms)"


class JitteredLatency(LatencyModel):
    """A single mean latency with truncated-normal jitter.

    ``stddev_frac`` is the standard deviation as a fraction of the mean
    (the paper uses 5%). Samples are truncated below at 10% of the mean so
    jitter can never produce a negative or implausibly small delay.
    """

    __slots__ = ("mean_ms", "stddev_frac")

    def __init__(self, mean_ms: float, stddev_frac: float = 0.05) -> None:
        if mean_ms < 0:
            raise ValueError("mean must be non-negative")
        if stddev_frac < 0:
            raise ValueError("stddev_frac must be non-negative")
        self.mean_ms = mean_ms
        self.stddev_frac = stddev_frac

    def pair_params(self, src: int, dst: int) -> PairParams:
        mean = self.mean_ms
        return (mean, mean * self.stddev_frac, 0.1 * mean)

    def __repr__(self) -> str:
        return f"JitteredLatency({self.mean_ms}ms ±{self.stddev_frac:.0%})"


class SiteMatrixLatency(LatencyModel):
    """Latency defined by a symmetric RTT matrix between *sites*.

    Args:
        site_of: mapping from process id to site index.
        rtt_ms: square matrix of round-trip times between sites;
            ``rtt_ms[i][j]`` is the RTT between site i and site j. The
            diagonal is the intra-site RTT.
        stddev_frac: jitter as a fraction of the mean (default 5%, as in
            the paper's emulation).

    One-way latency is half the RTT, with truncated-normal jitter.
    """

    __slots__ = ("site_of", "rtt_ms", "stddev_frac")

    def __init__(
        self,
        site_of: Dict[int, int],
        rtt_ms: Sequence[Sequence[float]],
        stddev_frac: float = 0.05,
    ) -> None:
        n = len(rtt_ms)
        for row in rtt_ms:
            if len(row) != n:
                raise ValueError("rtt_ms must be a square matrix")
        for i in range(n):
            for j in range(n):
                if abs(rtt_ms[i][j] - rtt_ms[j][i]) > 1e-9:
                    raise ValueError(f"rtt_ms must be symmetric (at {i},{j})")
                if rtt_ms[i][j] < 0:
                    raise ValueError("RTTs must be non-negative")
        for pid, site in site_of.items():
            if not 0 <= site < n:
                raise ValueError(f"process {pid} mapped to unknown site {site}")
        self.site_of = dict(site_of)
        self.rtt_ms: List[List[float]] = [list(row) for row in rtt_ms]
        self.stddev_frac = stddev_frac

    def pair_params(self, src: int, dst: int) -> PairParams:
        mean = self.rtt_ms[self.site_of[src]][self.site_of[dst]] / 2.0
        return (mean, mean * self.stddev_frac, 0.1 * mean)

    def __repr__(self) -> str:
        n_sites = len(self.rtt_ms)
        return f"SiteMatrixLatency({n_sites} sites ±{self.stddev_frac:.0%})"
