"""The family table: `FAMILIES` maps each family name to a frozen `Family`
record of all that other modules read about it (see the field comments).

`rp` has neither a closed-form Lambda0 nor a log-hazard offset: its eta is
the log cumulative hazard.  The module functions are one-line lookups into
the table; the survival calculus lives in the evaluator.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit, gammaln

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Link:
    mean: Callable                      # inverse link, mu(eta)
    d1: Callable                        # d mu / d eta
    d2: Callable                        # d2 mu / d eta2
    start: Callable                     # eta that puts mu at a response mean


@dataclass(frozen=True)
class Family:
    ancillary: tuple[str, ...] = ()     # report labels of the implicit ancillaries
    link: Link | None = None            # None: no mean, so no EV[] target or mu
    loglik: Callable | None = None      # scalar kernel (y (n, 1), eta, ap)
    survival: bool = False
    cumhazard: Callable | None = None   # (t, ap) -> closed-form Lambda0(t)
    log_hazard: Callable | None = None  # (t, ap) -> log h(t) - eta(t)
    baseline_in_eta: bool = False       # the formula carries the time baseline
    start: Callable | None = None       # y -> (intercept, ancillary) start values
    user: bool = False                  # log-likelihood from a registered userf


def _logit_d1(eta):
    p = expit(eta)
    return p * (1.0 - p)


def _logit_d2(eta):
    p = expit(eta)
    return p * (1.0 - p) * (1.0 - 2.0 * p)


def _logit_start(m):
    p = min(max(m, 1e-3), 1 - 1e-3)
    return np.log(p / (1 - p))


IDENTITY = Link(lambda eta: eta, np.ones_like, np.zeros_like, lambda m: m)
LOGIT = Link(expit, _logit_d1, _logit_d2, _logit_start)
LOG = Link(np.exp, np.exp, np.exp, lambda m: np.log(max(m, 1e-3)))


def _gaussian(y, eta, ap):
    log_sd = ap[0]
    return -0.5 * LOG_2PI - log_sd - (y - eta) ** 2 / (2.0 * np.exp(2.0 * log_sd))


def _negbinomial(y, eta, ap):
    alpha = np.exp(ap[0])
    mu = np.exp(eta)
    inv = 1.0 / alpha
    return (
        gammaln(y + inv) - gammaln(inv) - gammaln(y + 1.0)
        + y * np.log(alpha * mu / (1.0 + alpha * mu))
        - inv * np.log1p(alpha * mu)
    )


def _beta(y, eta, ap):
    phi = np.exp(ap[0])
    mu = expit(eta)
    return (
        gammaln(phi) - gammaln(mu * phi) - gammaln((1.0 - mu) * phi)
        + (mu * phi - 1.0) * np.log(y)
        + ((1.0 - mu) * phi - 1.0) * np.log1p(-y)
    )


def _gompertz_lambda0(t, ap):
    gamma = ap[0]
    if abs(gamma) < 1e-12:
        return t
    return np.expm1(gamma * t) / gamma


def _weibull_offset(t, ap):
    gamma = np.exp(ap[0])
    return np.log(gamma) + (gamma - 1.0) * np.log(t)


def _rate_start(y):
    """Log crude event rate of a (time, status) response."""
    t, d = y[:, 0], y[:, 1]
    return np.log(max(d.sum(), 0.5) / t.sum()), ()


def _mean_start(link):
    return lambda y: (link.start(float(np.mean(y))), ())


def _gaussian_start(y):
    return IDENTITY.start(float(np.mean(y))), (np.log(max(float(np.std(y)), 1e-3)),)


def _user_start(y):
    return _rate_start(y) if y.ndim == 2 else (float(np.mean(y)), ())


FAMILIES = {
    "gaussian": Family(("log_sd(resid.)",), IDENTITY, _gaussian, start=_gaussian_start),
    # y*eta - log(1 + exp(eta)), stable via logaddexp
    "bernoulli": Family((), LOGIT, lambda y, eta, ap: y * eta - np.logaddexp(0.0, eta),
                        start=_mean_start(LOGIT)),
    "poisson": Family((), LOG, lambda y, eta, ap: y * eta - np.exp(eta) - gammaln(y + 1.0),
                      start=_mean_start(LOG)),
    "beta": Family(("log_phi",), LOGIT, _beta, start=_mean_start(LOGIT)),
    "negbinomial": Family(("log_alpha",), LOG, _negbinomial, start=_mean_start(LOG)),
    "exponential": Family(survival=True, cumhazard=lambda t, ap: t,
                          log_hazard=lambda t, ap: np.zeros_like(t), start=_rate_start),
    "weibull": Family(("log(gamma)",), survival=True,
                      cumhazard=lambda t, ap: t**np.exp(ap[0]),
                      log_hazard=_weibull_offset, start=_rate_start),
    "gompertz": Family(("gamma",), survival=True, cumhazard=_gompertz_lambda0,
                       log_hazard=lambda t, ap: ap[0] * t, start=_rate_start),
    "rp": Family(survival=True, baseline_in_eta=True, start=_rate_start),
    "loghazard": Family(survival=True, log_hazard=lambda t, ap: np.zeros_like(t),
                        baseline_in_eta=True, start=_rate_start),
    "user": Family(start=_user_start, user=True),
    "null": Family((), IDENTITY,
                   lambda y, eta, ap: np.zeros(np.broadcast_shapes(y.shape, eta.shape))),
}


def _part(family: str, name: str):
    """A field of the family's record; ValueError when it has none."""
    part = getattr(FAMILIES[family], name)
    if part is None:
        raise ValueError(f"family {family!r} has no {name}")
    return part


def mean_value(family: str, eta: np.ndarray) -> np.ndarray:
    """Inverse-link of the complex predictor (the family mean)."""
    return _part(family, "link").mean(eta)


def mean_d1(family: str, eta: np.ndarray) -> np.ndarray:
    """First derivative of the inverse link, d mu / d eta."""
    return _part(family, "link").d1(eta)


def mean_d2(family: str, eta: np.ndarray) -> np.ndarray:
    """Second derivative of the inverse link."""
    return _part(family, "link").d2(eta)


def scalar_loglik(family: str, y: np.ndarray, eta: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Non-survival log-likelihood: y (n,), eta (n, nq), ap unrestricted."""
    return _part(family, "loglik")(y[:, None], eta, ap)


def baseline_cumhazard_factor(family: str, t: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Lambda0(t), H(t) = exp(eta) * Lambda0(t) for a time-constant eta."""
    return _part(family, "cumhazard")(t, ap)


def log_hazard_offset(family: str, t: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """log h(t) - eta(t) for the standard survival families."""
    return _part(family, "log_hazard")(t, ap)
