"""Stake distribution of honest validators under the bouncing attack.

Section 5.3 of the paper derives, from the random-walk model of the
inactivity score, the distribution of an honest validator's stake at epoch
``t`` of a probabilistic bouncing attack:

* Equation 18: the log-normal density ``P(s, t)``,
* Equation 19: its cumulative function ``F(s, t)`` (an erf),
* Equations 20–21: the *capped* law ``P̄(x, t)`` accounting for ejection at
  ``a = 16.75`` ETH (stake collapses to 0) and the 32-ETH cap,
* Equation 22: the capped cumulative ``F̄(x, t)``.

All of them are parameterised by ``D = 25 p0 (1-p0)`` and ``V = 3/2`` from
:mod:`repro.analysis.randomwalk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.analysis.randomwalk import diffusion_coefficient, drift_per_epoch
from repro.spec.config import DEFAULT_CONFIG, SpecConfig


@dataclass(frozen=True)
class BouncingStakeDistribution:
    """The honest-validator stake law during a bouncing attack.

    Parameters
    ----------
    p0:
        Probability for an honest validator to land on the branch under
        consideration at each epoch (the paper's ``p0``).
    s0:
        Initial stake; ``None`` means the config's maximum effective
        balance (32 ETH).
    config:
        The leak constants (mainnet when ``None``): the inactivity
        penalty quotient (``2**26``), the score bias and recovery behind
        ``V`` and ``D``, and the two bounds of Equation 20 — the ejection
        balance ``a`` (16.75 ETH), below which the stake collapses to
        zero, and the cap ``b`` (32 ETH), the maximum effective balance.
    """

    p0: float = 0.5
    s0: Optional[float] = None
    config: Optional[SpecConfig] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must lie strictly between 0 and 1")
        cfg = self.config or DEFAULT_CONFIG
        object.__setattr__(self, "config", cfg)
        if self.s0 is None:
            object.__setattr__(self, "s0", cfg.max_effective_balance)

    @property
    def ejection_balance(self) -> float:
        """The ``a`` bound of Equation 20: the config's ejection balance."""
        return self.config.ejection_balance

    @property
    def cap(self) -> float:
        """The ``b`` bound of Equation 20: the config's maximum effective balance."""
        return self.config.max_effective_balance

    @property
    def quotient(self) -> float:
        """The inactivity penalty quotient (``2**26`` on mainnet)."""
        return float(self.config.inactivity_penalty_quotient)

    # ------------------------------------------------------------------
    # Gaussian parameters of the integrated score
    # ------------------------------------------------------------------
    @property
    def diffusion(self) -> float:
        """The paper's ``D = 25 p0 (1 - p0)``."""
        return diffusion_coefficient(self.p0, self.config)

    @property
    def drift(self) -> float:
        """The paper's ``V = 3/2``."""
        return drift_per_epoch(self.p0, self.config)

    def _scale(self, t: float) -> float:
        """``sqrt((4/3) D t^3)``: the erf scale of Equation 19."""
        return math.sqrt(4.0 / 3.0 * self.diffusion * t ** 3)

    def _centred(self, s: float, t: float) -> float:
        """``2**26 ln(s / s0) + V t^2 / 2`` — the argument of Eqs. 18–19."""
        return self.quotient * math.log(s / self.s0) + self.drift * t * t / 2.0

    # ------------------------------------------------------------------
    # Equations 18 and 19: unbounded log-normal law
    # ------------------------------------------------------------------
    def pdf(self, s: float, t: float) -> float:
        """The log-normal density ``P(s, t)`` of Equation 18."""
        if t <= 0:
            raise ValueError("t must be positive")
        if s <= 0:
            return 0.0
        scale = self._scale(t)
        centred = self._centred(s, t)
        return (
            self.quotient
            / s
            * math.sqrt(1.0 / (math.pi * (4.0 / 3.0) * self.diffusion * t ** 3))
            * math.exp(-(centred ** 2) / (4.0 / 3.0 * self.diffusion * t ** 3))
        )

    def cdf(self, s: float, t: float) -> float:
        """The cumulative ``F(s, t)`` of Equation 19."""
        if t <= 0:
            raise ValueError("t must be positive")
        if s <= 0:
            return 0.0
        return 0.5 + 0.5 * math.erf(self._centred(s, t) / self._scale(t))

    def mean_stake(self, t: float) -> float:
        """Median of the log-normal law: ``s0 exp(-V t^2 / (2 * 2**26))``.

        This coincides with the deterministic semi-active trajectory
        ``s0 exp(-3 t^2 / 2**28)``, which is the paper's observation that
        "the mean of the log-normal distribution [is] equivalent to sB when
        t is not too big".
        """
        return self.s0 * math.exp(-self.drift * t * t / (2.0 * self.quotient))

    # ------------------------------------------------------------------
    # Equations 20–22: capped law with ejection and cap point masses
    # ------------------------------------------------------------------
    def ejection_mass(self, t: float) -> float:
        """Probability mass at stake 0 (validator ejected): ``F(a, t)``."""
        return self.cdf(self.ejection_balance, t)

    def cap_mass(self, t: float) -> float:
        """Probability mass at the 32-ETH cap: ``1 - F(b, t)``."""
        return 1.0 - self.cdf(self.cap, t)

    def capped_pdf(self, x: float, t: float) -> float:
        """Continuous part of the capped law ``P̄(x, t)`` (Equation 21).

        Only the absolutely-continuous part on ``(a, b)`` is returned; the
        Dirac masses at 0 and at the cap are exposed separately through
        :meth:`ejection_mass` and :meth:`cap_mass`.
        """
        if x <= self.ejection_balance or x >= self.cap:
            return 0.0
        return self.pdf(x, t)

    def capped_cdf(self, x: float, t: float) -> float:
        """The capped cumulative ``F̄(x, t)`` of Equation 22."""
        if t <= 0:
            raise ValueError("t must be positive")
        if x < 0:
            return 0.0
        a, b = self.ejection_balance, self.cap
        result = self.cdf(a, t)
        if x >= a:
            result += self.cdf(x, t) - self.cdf(a, t)
        if x >= b:
            result += 1.0 - self.cdf(x, t)
        return min(1.0, result)

    def total_mass(self, t: float, grid_points: int = 2001) -> float:
        """Numerically integrate the capped law; should be 1 (sanity check)."""
        a, b = self.ejection_balance, self.cap
        grid = np.linspace(a, b, grid_points)
        continuous = np.trapezoid([self.capped_pdf(float(x), t) for x in grid], grid)
        return self.ejection_mass(t) + self.cap_mass(t) + float(continuous)

    # ------------------------------------------------------------------
    # Sampling helpers (used by Figure 9 and the Monte-Carlo validations)
    # ------------------------------------------------------------------
    def density_series(
        self, t: float, grid_points: int = 400
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The Figure-9 series: the continuous density sampled on (a, b)."""
        grid = np.linspace(self.ejection_balance, self.cap, grid_points)
        densities = np.array([self.capped_pdf(float(x), t) for x in grid])
        return grid, densities

    def quantile(self, q: float, t: float, tolerance: float = 1e-9) -> float:
        """Inverse of the *uncapped* CDF by bisection (monotone in s)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        low, high = 1e-12, self.s0 * 2.0
        while self.cdf(high, t) < q:
            high *= 2.0
        for _ in range(200):
            mid = 0.5 * (low + high)
            if self.cdf(mid, t) < q:
                low = mid
            else:
                high = mid
            if high - low < tolerance:
                break
        return 0.5 * (low + high)
