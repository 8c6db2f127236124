"""The likelihood engine's nested random-effect reduction.

Each chunk sums the units of every cluster with one np.bincount per level.
The scatter-add reduction below is the rule it replaced; the results must
have the same bits.  A two-level Gaussian model, whose marginal likelihood
is a multivariate normal density, checks the reduction against a closed
form.
"""

import numpy as np
from scipy.stats import multivariate_normal

import jointfit as jf
from jointfit.estimation import CHUNK_CLUSTERS, LikelihoodEngine, start_values
from jointfit.evaluator import Evaluator

from conftest import make_dataset

TWO_LEVEL_SPEC = "levels = p,s\nip = 15\ngaussian : y ~ M1[p]*1 + M2[s]*1\n"
# _cons, log_sd(resid.), log_sd(M1), log_sd(M2)
TWO_LEVEL_PARAMS = np.asarray([1.0, np.log(1.0), np.log(0.5), np.log(0.4)])
N_TOP = 70  # two chunks


def two_level_data(seed=0):
    """N_TOP clusters p of 2 clusters s of 2 rows each, rows shuffled."""
    rng = np.random.default_rng(seed)
    p = np.repeat(np.arange(N_TOP), 4)
    s = np.repeat(np.arange(2 * N_TOP), 2)
    y = (1.0 + rng.normal(0.0, 0.5, N_TOP)[p] + rng.normal(0.0, 0.4, 2 * N_TOP)[s]
         + rng.normal(0.0, 1.0, 4 * N_TOP))
    perm = rng.permutation(4 * N_TOP)
    return make_dataset({"p": p[perm], "s": s[perm], "y": y[perm]}, levels=("p", "s"))


def engine(spec_text, data):
    spec = jf.validate_spec(jf.parse_spec_text(spec_text), data)
    return LikelihoodEngine(Evaluator(spec, data))


def scatter_chunk_loglik(self, chunk_id, params, draws):
    """Oracle: the np.add.at reduction, with per-level cluster maps built
    from the chunk's rows."""
    chunk = self.chunks[chunk_id]
    rows = chunk["rows"]
    contrib = np.zeros((len(rows), self.nq))
    for i, (local, at) in enumerate(chunk["subs"]):
        if len(local):
            np.add.at(contrib, local, self.ev.loglik_matrix(params, i, draws, at))
    if not self.spec.levels:
        return contrib[:, 0]
    maps = []
    for level in self.spec.levels:
        gids = self.data.level_index[level].row_cluster[rows]
        uniq, local = np.unique(gids, return_inverse=True)
        maps.append({"row_local": local, "n": len(uniq)})
    for k in range(1, len(maps)):
        first_row = np.unique(maps[k]["row_local"], return_index=True)[1]
        maps[k]["parent"] = maps[k - 1]["row_local"][first_row]
    cur = contrib.reshape((len(rows),) + self._level_counts)
    group = maps[-1]["row_local"]
    for k in range(len(maps) - 1, -1, -1):
        agg = np.zeros((maps[k]["n"],) + cur.shape[1:])
        np.add.at(agg, group, cur)
        w = self.node_sets[k].weights
        mx = np.max(agg, axis=-1, keepdims=True)
        mx_safe = np.where(np.isfinite(mx), mx, 0.0)
        with np.errstate(divide="ignore"):
            cur = np.log(np.sum(np.exp(agg - mx_safe) * w, axis=-1)) + mx_safe[..., 0]
        if k > 0:
            group = maps[k]["parent"]
    return cur


def no_level_data(n=5000, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return make_dataset({"y": 0.5 + 0.3 * x + rng.normal(size=n), "x": x})


def test_two_level_matches_multivariate_normal():
    data = two_level_data()
    eng = engine(TWO_LEVEL_SPEC, data)
    assert len(eng.chunks) == -(-N_TOP // CHUNK_CLUSTERS) == 2
    got = eng.cluster_logliks(TWO_LEVEL_PARAMS)
    mu, sd_e, sd_p, sd_s = TWO_LEVEL_PARAMS[0], *np.exp(TWO_LEVEL_PARAMS[1:])
    p, s, y = data.column("p"), data.column("s"), data.column("y")
    ref = []
    for k in range(N_TOP):
        rows = np.flatnonzero(p == k)
        same_s = s[rows][:, None] == s[rows][None, :]
        cov = sd_p**2 + sd_s**2 * same_s + sd_e**2 * np.eye(len(rows))
        ref.append(multivariate_normal(np.full(len(rows), mu), cov).logpdf(y[rows]))
    assert np.max(np.abs(got - np.asarray(ref))) < 1e-7


def test_bincount_reduction_matches_scatter_oracle(monkeypatch):
    two = engine(TWO_LEVEL_SPEC, two_level_data())
    # the same rows as 4-row clusters of one level: a sum of 3 or more
    # terms is where a segmented reduction would round differently
    one = engine("levels = p\nip = 15\ngaussian : y ~ M1[p]*1\n", two_level_data())
    flat = engine("gaussian : y ~ x\n", no_level_data())
    assert len(flat.chunks) == 2
    cases = [(eng, theta + d)
             for eng, theta in ((two, TWO_LEVEL_PARAMS), (one, start_values(one)),
                                (flat, start_values(flat)))
             for d in (0.0, 0.01, -0.2)]
    got = [eng.cluster_logliks(theta) for eng, theta in cases]
    monkeypatch.setattr(LikelihoodEngine, "_chunk_loglik", scatter_chunk_loglik)
    for (eng, theta), v in zip(cases, got):
        assert np.array_equal(v, eng.cluster_logliks(theta))
