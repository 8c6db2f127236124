"""Seeded input generators for the three workloads.

Every generator takes a numpy Generator built from (workload, --seed,
dataset number), so the same seed gives the same inputs.  The program only
ever sees the CSV files and fit JSON written here.
"""

import csv
import json
import math

import numpy as np

WORKLOADS = ("joint_ev", "shared_re", "predict_cr")

# joint model with a current-value link; 2-6 irregular visits per cluster
JOINT_EV_SPEC = (
    "levels = id\n"
    "ip = 7\n"
    "gaussian : y ~ rcs(time, df = 3, orthog = TRUE) + M1[id]*1 | timevar=time\n"
    "weibull : Surv(st, sd) ~ x + EV[y] | timevar=st\n"
)
JOINT_EV_CLUSTERS = 30

# the recovery model of tests/test_acceptance.py
SHARED_RE_SPEC = (
    "levels = id\n"
    "ip = 35\n"
    "weibull : Surv(st, sd) ~ M1[id] | timevar=st\n"
    "gaussian : y ~ time + M1[id]*1 | timevar=time\n"
)
SHARED_RE_CLUSTERS = 300
SHARED_RE_TRUTH = {          # in the fit's parameter order
    "M1": 1.0, "_cons#1": math.log(0.1), "log(gamma)": 0.0,
    "time": 0.2, "_cons#4": 1.0, "log_sd(resid.)": math.log(0.3),
    "log_sd(M1)": math.log(0.5),
}

# two Weibull cause-specific hazards; cause 2 has a log-time effect of x
PREDICT_CR_SPEC = (
    "weibull : Surv(t, d1) ~ x\n"
    "weibull : Surv(t, d2) ~ x + x:fp(t, powers = c(0)) | timevar=t\n"
)
PREDICT_CR_SUBJECTS = 200
PREDICT_CR_LABELS = ["x", "_cons", "log(gamma)", "x", "x:fp()", "_cons", "log(gamma)"]
# b1, c1, log g1, b2, delta, c2, log g2: h1 = g1 t^(g1-1) exp(c1 + b1 x),
# h2 = g2 t^(g2-1) exp(c2 + b2 x + delta x log t)
PREDICT_CR_PARAMS = [0.5, math.log(0.08), math.log(1.3),
                     -0.3, 0.4, math.log(0.05), math.log(1.1)]
PREDICT_CR_GRID = np.linspace(0.5, 6.0, 12)

_STREAM = {name: k for k, name in enumerate(WORKLOADS)}


def rng_for(workload: str, seed: int, dataset: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed, dataset])


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names)
        for i in range(n):
            w.writerow(["NA" if np.isnan(columns[c][i]) else repr(float(columns[c][i]))
                        for c in names])


def sim_joint_ev(rng, n_clusters=JOINT_EV_CLUSTERS):
    """Longitudinal y(t) = 1 + 0.3 t + b + e, visits at 0 and 1-5 uniform
    times before the event; hazard 0.1 exp(0.5 x + 0.5 E[y(t) | b]),
    administrative censoring at 5.  Cluster i has 2 + i % 5 visits, so the
    row count, and with it the work per evaluation, does not vary by seed."""
    lam, beta, alpha, b0, b1 = 0.1, 0.5, 0.5, 1.0, 0.3
    rows = []
    for i in range(n_clusters):
        x = float(rng.integers(0, 2))
        b = rng.normal(0.0, 0.5)
        k = alpha * b1
        scale = lam * math.exp(beta * x + alpha * (b0 + b))
        t = math.log1p(k * rng.exponential() / scale) / k
        d = float(t < 5.0)
        t = min(t, 5.0)
        nv = 2 + i % 5
        for tt in np.sort(np.concatenate([[0.0], rng.uniform(0.0, t, nv - 1)])):
            rows.append((i, tt, b0 + b1 * tt + b + rng.normal(0.0, 0.3), np.nan, np.nan, x))
        rows.append((i, np.nan, np.nan, t, d, x))
    a = np.asarray(rows, dtype=float)
    return {"id": a[:, 0], "time": a[:, 1], "y": a[:, 2], "st": a[:, 3],
            "sd": a[:, 4], "x": a[:, 5]}


def sim_shared_re(rng, n_clusters=SHARED_RE_CLUSTERS):
    """Shared random intercept b ~ N(0, 0.5^2): y = 1 + 0.2 t + b + e at
    t = 0..3 before the event, hazard 0.1 exp(b), censoring at 5."""
    rows = []
    for i in range(n_clusters):
        b = rng.normal(0.0, 0.5)
        t = min(rng.exponential(1.0 / (0.1 * math.exp(b))), 5.0)
        d = float(t < 5.0)
        for tt in (0.0, 1.0, 2.0, 3.0):
            if tt > t:
                break
            rows.append((i, tt, 1.0 + 0.2 * tt + b + rng.normal(0.0, 0.3), np.nan, np.nan))
        rows.append((i, np.nan, np.nan, t, d))
    a = np.asarray(rows, dtype=float)
    return {"id": a[:, 0], "time": a[:, 1], "y": a[:, 2], "st": a[:, 3], "sd": a[:, 4]}


def cr_linear_predictors(x):
    b1, c1, lg1, b2, delta, c2, lg2 = PREDICT_CR_PARAMS
    return (c1 + b1 * x, math.exp(lg1), c2 + b2 * x, math.exp(lg2), delta * x)


def sim_predict_cr(rng, n=PREDICT_CR_SUBJECTS):
    """Latent event times from the two hazards by inversion, uniform
    censoring on (2, 8)."""
    x = rng.integers(0, 2, n).astype(float)
    e1, g1, e2, g2, dx = cr_linear_predictors(x)
    t1 = (rng.exponential(size=n) / np.exp(e1)) ** (1.0 / g1)
    p = g2 + dx
    t2 = (rng.exponential(size=n) * p / (g2 * np.exp(e2))) ** (1.0 / p)
    c = rng.uniform(2.0, 8.0, n)
    t = np.minimum(np.minimum(t1, t2), c)
    return {"t": t, "d1": (t1 == t).astype(float), "d2": (t2 == t).astype(float), "x": x}


SIMULATORS = {"joint_ev": sim_joint_ev, "shared_re": sim_shared_re,
              "predict_cr": sim_predict_cr}
SPECS = {"joint_ev": JOINT_EV_SPEC, "shared_re": SHARED_RE_SPEC,
         "predict_cr": PREDICT_CR_SPEC}


def predict_cr_fit_json() -> str:
    """A fit document at the fixed parameter values, in the program's
    fit-JSON layout, with no standard errors."""
    doc = {
        "estimates": PREDICT_CR_PARAMS, "labels": PREDICT_CR_LABELS,
        "vcov": None, "loglik": 0.0, "iterations": 0, "converged": True,
        "spec": "covariance = identity\n" + PREDICT_CR_SPEC,
        "intmethod": [], "ip": [], "seed": 0, "bases": {},
    }
    return json.dumps(doc, indent=1, sort_keys=True)
