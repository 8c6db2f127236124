"""Correctness checks computed apart from the program.

Each check rebuilds a likelihood or prediction from the simulation's own
formulas with numpy/scipy and compares it with the program's output.  A
tolerance is the reference integral's stated error (`quad`'s abserr) plus
twice the error estimate of the program's fixed rule, taken as the change
when that rule's point count is doubled in the independent computation.
Each function returns a list of failure messages; an empty list passes.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import logsumexp
from scipy.stats import norm

from workloads import PREDICT_CR_GRID, SHARED_RE_TRUTH, cr_linear_predictors

LOG_2PI = math.log(2.0 * math.pi)
# the program's fixed rules: Gauss-Legendre points for cumulative hazards
# and for the CIF / time-lost integrals
CHAZ_POINTS = 30
CIF_POINTS = 50
# per-estimate limit for the truth check: Bonferroni over the 7 estimates
# at a family-wise false-alarm rate of 1e-4 per run
TRUTH_Z = float(norm.isf(1e-4 / (2 * 7)))


def _close(name, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{name}: program {got!r} vs reference {want!r}, |diff| "
                f"{abs(got - want):.3g} > tol {tol:.3g}"]
    return []


def _gh(ip):
    z, w = np.polynomial.hermite_e.hermegauss(ip)
    return z, w / math.sqrt(2.0 * math.pi)


def _gl(fn, t, n):
    """Gauss-Legendre integral of fn over (0, t] for each t (vectorised)."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * np.asarray(t, dtype=float)
    u = half[..., None] * (x + 1.0)
    return np.sum(fn(u) * w, axis=-1) * half


def _clusters(cols):
    ids = cols["id"]
    out = []
    for c in np.unique(ids):
        r = ids == c
        long = r & ~np.isnan(cols["y"])
        surv = np.flatnonzero(r & ~np.isnan(cols["st"]))[0]
        out.append((cols["time"][long], cols["y"][long], surv))
    return out


def _normlog(y, mu, sd):
    return -0.5 * LOG_2PI - math.log(sd) - 0.5 * ((y - mu) / sd) ** 2


# ---------------------------------------------------------------------------
# joint_ev
# ---------------------------------------------------------------------------

def _rcs(t, knots):
    t = np.asarray(t, dtype=float)
    kmin, kmax = knots[0], knots[-1]
    cube = lambda v: np.maximum(v, 0.0) ** 3
    cols = [t]
    for kj in knots[1:-1]:
        lam = (kmax - kj) / (kmax - kmin)
        cols.append(cube(t - kj) - lam * cube(t - kmin) - (1 - lam) * cube(t - kmax))
    return np.stack(cols, axis=-1)


def _rcs_scalar(t, knots):
    # float-only twin of _rcs for quad's scalar integrand, which it calls ~100 times
    kmin, kmax = knots[0], knots[-1]
    out = [t]
    for kj in knots[1:-1]:
        lam = (kmax - kj) / (kmax - kmin)
        out.append(max(t - kj, 0.0) ** 3 - lam * max(t - kmin, 0.0) ** 3
                   - (1 - lam) * max(t - kmax, 0.0) ** 3)
    return out


def joint_ev_loglik(p, cols, basis, ip=7):
    """Marginal log-likelihood of the joint_ev model: GH nodes from numpy
    for the random intercept, `quad` for each cumulative hazard.  `basis`
    is the fit's stored spline: knots and the orthogonalising transform.
    Returns (loglik, tolerance)."""
    cg, sd_e = p[3], math.exp(p[4])
    bx, alpha, cs, gam, sd_b = p[5], p[6], p[7], math.exp(p[8]), math.exp(p[9])
    knots = [float(k) for k in basis["knots"]]
    # orthogonalised columns raw @ mat + shift, folded into the coefficients
    beta = np.asarray(basis["orthog_mat"]) @ p[0:3]
    cg = cg + float(np.asarray(basis["orthog_shift"]) @ p[0:3])
    z, w = _gh(ip)
    b = sd_b * z
    total = tol = 0.0
    for t_long, y, s in _clusters(cols):
        T, d, x = cols["st"][s], cols["sd"][s], cols["x"][s]
        mu = _rcs(t_long, knots) @ beta + cg
        ll = np.array([np.sum(_normlog(y, mu + bq, sd_e)) for bq in b])
        lin = cs + bx * x
        breaks = [k for k in knots if 0.0 < k < T]
        err = np.zeros(ip)
        for q, bq in enumerate(b):
            def haz(u, bq=bq):
                m = sum(c * v for c, v in zip(beta, _rcs_scalar(u, knots))) + cg + bq
                return gam * u ** (gam - 1.0) * math.exp(lin + alpha * m)
            H, abserr = integrate.quad(haz, 0.0, T, points=breaks or None,
                                       epsabs=1e-12, epsrel=1e-12, limit=200)

            def haz_v(u, bq=bq):
                m = _rcs(u, knots) @ beta + cg + bq
                return gam * u ** (gam - 1.0) * np.exp(lin + alpha * m)
            rule = abs(_gl(haz_v, T, CHAZ_POINTS) - _gl(haz_v, T, 2 * CHAZ_POINTS))
            m_T = float(_rcs(T, knots) @ beta) + cg + bq
            logh = math.log(gam) + (gam - 1.0) * math.log(T) + lin + alpha * m_T
            ll[q] += d * logh - H
            err[q] = abserr + 2.0 * rule
        total += float(logsumexp(ll, b=w))
        tol += float(err.max())
    return total, tol + 1e-9 * abs(total)


def check_joint_ev(fit, cols, program_loglik):
    ref, tol = joint_ev_loglik(np.asarray(fit.estimates), cols, fit.bases["0:0:0"])
    return _close("joint_ev marginal loglik at the estimates", program_loglik, ref, tol)


# ---------------------------------------------------------------------------
# shared_re
# ---------------------------------------------------------------------------

def shared_re_loglik(p, cols):
    """Marginal log-likelihood of the shared_re model with an adaptive
    integral over the random intercept and `quad` for the cumulative
    hazard.  Returns (loglik, tolerance)."""
    alpha, cs, gam = p[0], p[1], math.exp(p[2])
    bt, cg, sd_e, sd_b = p[3], p[4], math.exp(p[5]), math.exp(p[6])
    z35, w35 = _gh(35)
    z70, w70 = _gh(70)
    total = tol = 0.0
    for t_long, y, s in _clusters(cols):
        T, d = cols["st"][s], cols["sd"][s]
        H0, h0err = integrate.quad(lambda u: gam * u ** (gam - 1.0), 0.0, T,
                                   epsabs=1e-13, epsrel=1e-13)
        logh0 = math.log(gam) + (gam - 1.0) * math.log(T)
        mu = cg + bt * t_long

        def logc(b):  # log-likelihood of the cluster given its intercept b
            b = np.asarray(b, dtype=float)
            lin = cs + alpha * b
            return (np.sum(_normlog(y[:, None], mu[:, None] + b, sd_e), axis=0)
                    + d * (logh0 + lin) - np.exp(lin) * H0)

        def logf(b):
            return logc(b) + _normlog(np.asarray(b, dtype=float), 0.0, sd_b)

        grid = np.linspace(-10.0 * sd_b, 10.0 * sd_b, 2001)
        lg = logf(grid)
        top = float(lg.max())
        mode = float(grid[np.argmax(lg)])
        val, abserr = integrate.quad(lambda b: math.exp(float(logf([b])[0]) - top),
                                     -10.0 * sd_b, 10.0 * sd_b, points=[mode],
                                     epsabs=0.0, epsrel=1e-11, limit=200)
        total += math.log(val) + top
        # the program's rule: 35 GH nodes in standard-normal space
        g35 = logsumexp(logc(sd_b * z35), b=w35)
        g70 = logsumexp(logc(sd_b * z70), b=w70)
        h_sens = math.exp(cs + abs(alpha) * 10.0 * sd_b)
        tol += abserr / val + 2.0 * abs(g35 - g70) + h0err * h_sens
    return total, tol + 1e-9 * abs(total)


def check_shared_re(fit, cols, program_loglik):
    ref, tol = shared_re_loglik(np.asarray(fit.estimates), cols)
    out = _close("shared_re marginal loglik at the estimates", program_loglik, ref, tol)
    se = fit.std_errors()
    for (key, truth), est, s in zip(SHARED_RE_TRUTH.items(), fit.estimates, se):
        if not abs(est - truth) <= TRUTH_Z * s:
            out.append(f"shared_re {key}: estimate {est:.4f} is more than "
                       f"{TRUTH_Z:.2f} SE ({s:.4f}) from the truth {truth:.4f}")
    return out


# ---------------------------------------------------------------------------
# predict_cr
# ---------------------------------------------------------------------------

class CrReference:
    """Closed-form cause-specific hazards of predict_cr at covariate x."""

    def __init__(self, x):
        self.e1, self.g1, self.e2, self.g2, self.dx = cr_linear_predictors(float(x))

    def h(self, cause, u):
        if cause == 1:
            return self.g1 * u ** (self.g1 - 1.0) * np.exp(self.e1)
        return self.g2 * u ** (self.g2 - 1.0 + self.dx) * np.exp(self.e2)

    def H1(self, u):
        return np.exp(self.e1) * u ** self.g1

    def H2(self, u, n=None):
        """Closed form, or the program's n-point Gauss-Legendre rule."""
        if n is None:
            p = self.g2 + self.dx
            return np.exp(self.e2) * self.g2 * u ** p / p
        return _gl(lambda v: self.h(2, v), u, n)

    def surv(self, u, n=None):
        return np.exp(-self.H1(u) - self.H2(u, n))

    def cif_quad(self, cause, t):
        return integrate.quad(lambda u: float(self.h(cause, u) * self.surv(u)), 0.0, t,
                              epsabs=1e-13, epsrel=1e-12, limit=200)

    def cif_rule(self, cause, t, scale=1):
        return _gl(lambda u: self.h(cause, u) * self.surv(u, CHAZ_POINTS * scale),
                   t, CIF_POINTS * scale)

    def rmst_quad(self, t):
        return integrate.quad(lambda u: float(self.surv(u)), 0.0, t,
                              epsabs=1e-13, epsrel=1e-12, limit=200)

    def rmst_rule(self, t, scale=1):
        lost = sum(_gl(lambda u, c=c: self.cif_rule(c, u, scale), t, CIF_POINTS * scale)
                   for c in (1, 2))
        return t - lost


def _per_time(res):
    """Collapse per-row predictions to one value per distinct time; rows at
    one time must agree (x is overridden)."""
    out = {}
    for t, v in zip(res["times"], res["values"]):
        out.setdefault(float(t), []).append(float(v))
    return {t: (vs[0], max(vs) - min(vs)) for t, vs in out.items()}


def check_predict_cr(preds):
    """preds: the program's predictions keyed by the names run.py gives them."""
    out = []
    ref = {0: CrReference(0.0), 1: CrReference(1.0)}
    specs = {
        "cif cause 1, x=0": lambda t: _cif(ref[0], 1, t),
        "cif cause 2, x=1": lambda t: _cif(ref[1], 2, t),
        "cif cause 1, x=1": lambda t: _cif(ref[1], 1, t),
        "cifdifference cause 1, x 0->1": lambda t: _diff(_cif(ref[1], 1, t), _cif(ref[0], 1, t)),
        "rmst, x=1": lambda t: _rmst(ref[1], t),
    }
    for name, fn in specs.items():
        for t, (got, spread) in _per_time(preds[name]).items():
            want, tol = fn(t)
            out += _close(f"{name} at t={t:g}", got, want, tol)
            if spread > 1e-12:
                out.append(f"{name} at t={t:g}: rows with equal x and t differ by {spread:.3g}")
    # the two CIFs plus overall survival sum to one
    c1 = _per_time(preds["cif cause 1, x=1"])
    c2 = _per_time(preds["cif cause 2, x=1"])
    s1 = _per_time(preds["survival cause 1, x=1"])
    s2 = _per_time(preds["survival cause 2, x=1"])
    for t in PREDICT_CR_GRID:
        t = float(t)
        tol = _cif(ref[1], 1, t)[1] + _cif(ref[1], 2, t)[1]
        total = c1[t][0] + c2[t][0] + s1[t][0] * s2[t][0]
        out += _close(f"cif1 + cif2 + S at t={t:g}", total, 1.0, tol)
    return out


def _cif(r, cause, t):
    val, abserr = r.cif_quad(cause, t)
    rule = abs(r.cif_rule(cause, t) - r.cif_rule(cause, t, 2))
    return val, abserr + 2.0 * rule + 1e-12


def _diff(a, b):
    return a[0] - b[0], a[1] + b[1]


def _rmst(r, t):
    val, abserr = r.rmst_quad(t)
    rule = abs(r.rmst_rule(t) - r.rmst_rule(t, 2))
    return val, abserr + 2.0 * rule + 1e-12


def predict_cr_loglik(cols):
    """Log-likelihood at the fixed parameters from the closed-form hazards,
    with the tolerance of the program's 30-point cumulative hazard."""
    total = tol = 0.0
    for xv in (0.0, 1.0):
        r = CrReference(xv)
        sel = cols["x"] == xv
        t, d1, d2 = cols["t"][sel], cols["d1"][sel], cols["d2"][sel]
        total += float(np.sum(d1 * np.log(r.h(1, t)) + d2 * np.log(r.h(2, t))
                              - r.H1(t) - r.H2(t)))
        tol += float(np.sum(2.0 * np.abs(r.H2(t, CHAZ_POINTS) - r.H2(t, 2 * CHAZ_POINTS))))
    return total, tol + 1e-9 * abs(total)


def check_predict_cr_loglik(cols, program_loglik):
    ref, tol = predict_cr_loglik(cols)
    return _close("predict_cr loglik at the fixed parameters", program_loglik, ref, tol)
