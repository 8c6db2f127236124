"""scipy is imported where it is called, not by `import jointfit`.

A gaussian and Weibull fit, its likelihood and a cif prediction load no
scipy module.  The kernels, node sets and table statistics that do call
scipy give the bits of the module-level scipy calls they replaced.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, gammaln, ndtri
from scipy.stats import norm, qmc

import jointfit as jf
from jointfit import families
from jointfit.estimation import _wald
from jointfit.quadrature import qmc_nodes

SCRIPT = """
import sys
import numpy as np
import jointfit as jf
from jointfit.prediction import FittedModel, PredictRequest, predict_stat
from conftest import sim_joint

data = sim_joint(40, assoc=0.8, seed=6)
spec = jf.validate_spec(jf.parse_spec_text(
    "levels = id\\nip = 7\\n"
    "weibull : Surv(st, sd) ~ M1[id] | timevar=st\\n"
    "gaussian : y ~ time + M1[id]*1 | timevar=time\\n"), data)
fit = jf.maximize(spec, data, jf.FitControls())
assert fit.converged
jf.LikelihoodEngine(jf.Evaluator(spec, data)).total_loglik(np.asarray(fit.estimates))
model = FittedModel(fit, data)
predict_stat(model, PredictRequest(statistic="cif", times=2.0))
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_fit_and_prediction_load_no_scipy():
    tests = Path(__file__).resolve().parent
    src = Path(jf.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_table_statistics_match_scipy_stats():
    rng = np.random.default_rng(1)
    est = np.concatenate([rng.normal(0.0, 3.0, 10_000), [0.0, 1.0, np.inf, -np.inf, np.nan, 2.0]])
    se = np.concatenate([rng.uniform(0.01, 2.0, 10_000), [1.0, 0.0, 1.0, 1.0, 1.0, np.nan]])
    z, p, lo, hi = _wald(est, se)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_z = np.where(se > 0, est / se, np.nan)
    crit = norm.ppf(0.975)
    for got, want in ((z, want_z), (p, 2.0 * norm.sf(np.abs(want_z))),
                      (lo, est - crit * se), (hi, est + crit * se)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["bernoulli", "poisson", "negbinomial", "beta"])
def test_kernels_match_module_level_scipy(name):
    rng = np.random.default_rng(2)
    eta = rng.normal(0.0, 2.0, (200, 5))
    ap = np.array([0.3])
    y = {"bernoulli": rng.integers(0, 2, 200) * 1.0, "poisson": rng.poisson(3.0, 200) * 1.0,
         "negbinomial": rng.poisson(3.0, 200) * 1.0,
         "beta": rng.uniform(0.01, 0.99, 200)}[name][:, None]
    fam = families.FAMILIES[name]
    got = [fam.loglik(y, eta, ap)]
    if name == "bernoulli":
        p = expit(eta)
        want = [y * eta - np.logaddexp(0.0, eta), y - p, p, p * (1.0 - p),
                p * (1.0 - p) * (1.0 - 2.0 * p)]
        got += [fam.loglik_d(y, eta, ap)[0], fam.link.mean(eta), fam.link.d1(eta),
                fam.link.d2(eta)]
    elif name == "poisson":
        want = [y * eta - np.exp(eta) - gammaln(y + 1.0)]
    elif name == "negbinomial":
        alpha, mu = np.exp(ap[0]), np.exp(eta)
        inv = 1.0 / alpha
        want = [gammaln(y + inv) - gammaln(inv) - gammaln(y + 1.0)
                + y * np.log(alpha * mu / (1.0 + alpha * mu)) - inv * np.log1p(alpha * mu)]
    else:
        phi, mu = np.exp(ap[0]), expit(eta)
        want = [gammaln(phi) - gammaln(mu * phi) - gammaln((1.0 - mu) * phi)
                + (mu * phi - 1.0) * np.log(y) + ((1.0 - mu) * phi - 1.0) * np.log1p(-y)]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("method", ["halton", "sobol", "mc"])
def test_qmc_nodes_match_module_level_scipy(method):
    n, r = 63, 3  # Sobol draws n + 1 = 64 points, a power of 2, so it does not warn
    if method == "mc":
        u = np.clip(np.random.default_rng(5).random((n, r)), 1e-12, 1.0 - 1e-12)
    else:
        engine = qmc.Halton if method == "halton" else qmc.Sobol
        u = engine(d=r, scramble=False).random(n + 1)[1:]
    got = qmc_nodes(method, n, r, seed=5)
    assert got.nodes.tobytes() == ndtri(u).tobytes()
    assert got.weights.tobytes() == np.full(n, 1.0 / n).tobytes()
