"""The family table: `FAMILIES` maps each family name to a frozen `Family`
record of all that other modules read about it (see the field comments).

`rp` has neither a closed-form Lambda0 nor a log-hazard offset: its eta is
the log cumulative hazard.  The module functions are one-line lookups into
the table; the survival calculus lives in the evaluator.

The derivative kernels give the likelihood engine's score closed-form row
derivatives: dl/deta and dl/dap of the scalar kernel (gaussian, bernoulli,
poisson), d(log h - eta)/dap of the survival families with a log-hazard
offset (exponential, weibull, gompertz, loghazard), and dLambda0/dap of
those with a closed-form Lambda0, whose dl/deta is then d - H.  A family
without them (None: rp, beta, negbinomial, user) has its rows
differenced centrally.  Every family with derivative kernels also has
second-derivative kernels, for the engine's observed information:
loglik_d2, log_hazard_d2 and cumhazard_d2.  A second derivative in the
ancillaries ap[k], ap[m] is given for each pair k <= m, in row-major order.

Every kernel is elementwise.  An ancillary ap[k] is a scalar for one
parameter point or a row of one value per node column for a batch of
points (see estimation.LikelihoodEngine), and times come as a column
t (n, 1), so either broadcasts against eta (n, nq).
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
    cumhazard: Callable | None = None   # (t (n, 1), ap) -> closed-form Lambda0(t)
    log_hazard: Callable | None = None  # (t (n, 1), ap) -> log h(t) - eta(t)
    baseline_in_eta: bool = False       # the formula carries the time baseline
    start: Callable | None = None       # y -> (intercept, ancillary) start values
    user: bool = False                  # log-likelihood from a registered userf
    # derivative kernels, None where the score differences the rows:
    loglik_d: Callable | None = None    # (y, eta, ap) -> (dl/deta, (dl/dap[k], ...))
    cumhazard_d: Callable | None = None   # (t, ap) -> (dLambda0/dap[k], ...)
    log_hazard_d: Callable | None = None  # (t, ap) -> (d(log h - eta)/dap[k], ...)
    # (y, eta, ap) -> (d2l/deta2, (d2l/deta dap[k], ...), (d2l/dap[k] dap[m], ...))
    loglik_d2: Callable | None = None
    cumhazard_d2: Callable | None = None    # (t, ap) -> (d2Lambda0/dap[k] dap[m], ...)
    log_hazard_d2: Callable | None = None   # (t, ap) -> (d2(log h - eta)/dap[k] dap[m], ...)


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


def _gaussian_d(y, eta, ap):
    z2 = (y - eta) / np.exp(2.0 * ap[0])
    return z2, (z2 * (y - eta) - 1.0,)


def _gaussian_d2(y, eta, ap):
    z2 = (y - eta) / np.exp(2.0 * ap[0])
    return -np.exp(-2.0 * ap[0]), (-2.0 * z2,), (-2.0 * z2 * (y - eta),)


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
    small = np.abs(gamma) < 1e-12
    safe = np.where(small, 1.0, gamma)
    return np.where(small, t, np.expm1(safe * t) / safe)


def _gompertz_lambda0_d(t, ap):
    """dLambda0/dgamma = t^2 (u e^u - e^u + 1) / u^2 with u = gamma t, as
    (expm1(u) (u - 1) + u) / u^2, which does not overflow to inf - inf, and
    by its Taylor series where |u| < 1e-3 (t^2 / 2 at gamma = 0), which the
    difference would lose to cancellation."""
    u = ap[0] * t
    small = np.abs(u) < 1e-3
    safe = np.where(small, 1.0, u)
    series = 0.5 + u * (1.0 / 3.0 + u * (1.0 / 8.0 + u * (1.0 / 30.0 + u / 144.0)))
    return (t * t * np.where(small, series, (np.expm1(safe) * (safe - 1.0) + safe) / safe**2),)


def _gompertz_lambda0_d2(t, ap):
    """d2Lambda0/dgamma2 = t^3 (e^u (u^2 - 2u + 2) - 2) / u^3 with u = gamma t,
    as (expm1(u) (u^2 - 2u + 2) + u^2 - 2u) / u^3, and by its Taylor series
    where |u| < 0.1 (t^3 / 3 at gamma = 0): the difference loses about
    5 eps / u^2 of its value to cancellation, 1e-13 at the bound, where the
    first term the series omits, u^8 / 443,520, is 7e-14 of its value."""
    u = ap[0] * t
    small = np.abs(u) < 0.1
    safe = np.where(small, 1.0, u)
    series = 1.0 / 3.0 + u * (0.25 + u * (0.1 + u * (1.0 / 36.0 + u * (
        1.0 / 168.0 + u * (1.0 / 960.0 + u * (1.0 / 6480.0 + u / 50400.0))))))
    exact = (np.expm1(safe) * (safe * (safe - 2.0) + 2.0) + safe * (safe - 2.0)) / safe**3
    return (t**3 * np.where(small, series, exact),)


def _weibull_offset(t, ap):
    gamma = np.exp(ap[0])
    return np.log(gamma) + (gamma - 1.0) * np.log(t)


def _weibull_lambda0_d(t, ap):
    gamma = np.exp(ap[0])
    return (t**gamma * gamma * np.log(t),)


def _weibull_lambda0_d2(t, ap):
    gl = np.exp(ap[0]) * np.log(t)
    return (t**np.exp(ap[0]) * gl * (1.0 + gl),)


def _weibull_offset_d(t, ap):
    return (1.0 + np.exp(ap[0]) * np.log(t),)


def _weibull_offset_d2(t, ap):
    return (np.exp(ap[0]) * np.log(t),)


def _no_ancillary(t, ap):
    return ()


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
    "gaussian": Family(("log_sd(resid.)",), IDENTITY, _gaussian, start=_gaussian_start,
                       loglik_d=_gaussian_d, loglik_d2=_gaussian_d2),
    # y*eta - log(1 + exp(eta)), stable via logaddexp
    "bernoulli": Family((), LOGIT, lambda y, eta, ap: y * eta - np.logaddexp(0.0, eta),
                        start=_mean_start(LOGIT),
                        loglik_d=lambda y, eta, ap: (y - expit(eta), ()),
                        loglik_d2=lambda y, eta, ap: (-_logit_d1(eta), (), ())),
    "poisson": Family((), LOG, lambda y, eta, ap: y * eta - np.exp(eta) - gammaln(y + 1.0),
                      start=_mean_start(LOG),
                      loglik_d=lambda y, eta, ap: (y - np.exp(eta), ()),
                      loglik_d2=lambda y, eta, ap: (-np.exp(eta), (), ())),
    "beta": Family(("log_phi",), LOGIT, _beta, start=_mean_start(LOGIT)),
    "negbinomial": Family(("log_alpha",), LOG, _negbinomial, start=_mean_start(LOG)),
    "exponential": Family(survival=True, cumhazard=lambda t, ap: t,
                          log_hazard=lambda t, ap: np.zeros_like(t), start=_rate_start,
                          cumhazard_d=_no_ancillary, log_hazard_d=_no_ancillary,
                          cumhazard_d2=_no_ancillary, log_hazard_d2=_no_ancillary),
    "weibull": Family(("log(gamma)",), survival=True,
                      cumhazard=lambda t, ap: t**np.exp(ap[0]),
                      log_hazard=_weibull_offset, start=_rate_start,
                      cumhazard_d=_weibull_lambda0_d, log_hazard_d=_weibull_offset_d,
                      cumhazard_d2=_weibull_lambda0_d2, log_hazard_d2=_weibull_offset_d2),
    "gompertz": Family(("gamma",), survival=True, cumhazard=_gompertz_lambda0,
                       log_hazard=lambda t, ap: ap[0] * t, start=_rate_start,
                       cumhazard_d=_gompertz_lambda0_d, log_hazard_d=lambda t, ap: (t,),
                       cumhazard_d2=_gompertz_lambda0_d2,
                       log_hazard_d2=lambda t, ap: (np.zeros_like(t),)),
    "rp": Family(survival=True, baseline_in_eta=True, start=_rate_start),
    "loghazard": Family(survival=True, log_hazard=lambda t, ap: np.zeros_like(t),
                        baseline_in_eta=True, start=_rate_start,
                        log_hazard_d=_no_ancillary, log_hazard_d2=_no_ancillary),
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
    """Non-survival log-likelihood: y (n,), eta (n, nq), ap unrestricted
    (scalars or rows of width nq)."""
    return _part(family, "loglik")(y[:, None], eta, ap)


def baseline_cumhazard_factor(family: str, t: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """Lambda0(t) at t (n, 1), H(t) = exp(eta) * Lambda0(t) for a
    time-constant eta."""
    return _part(family, "cumhazard")(t, ap)


def log_hazard_offset(family: str, t: np.ndarray, ap: np.ndarray) -> np.ndarray:
    """log h(t) - eta(t) at t (n, 1) for the standard survival families."""
    return _part(family, "log_hazard")(t, ap)
