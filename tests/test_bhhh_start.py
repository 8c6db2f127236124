"""The BFGS start: the inverse of the outer product of the per-cluster
scores (BHHH).

LikelihoodEngine.cluster_scores gives each top-level cluster's score,
whose sum is the score bit for bit on every chunk partition.  _bfgs starts
from (G'G)^-1 of the scores at the start values, and from I, with the
reason in its debug record, where the start gradient fell back to central
differences or G'G is not finite or not positive definite; the fit still
converges from I.
"""

import logging
import re

import numpy as np
import pytest

from jointfit import estimation
from jointfit.estimation import LikelihoodEngine, _bhhh_start, start_values

from conftest import fit_spec, make_dataset, sim_lmm
from test_batch import _engine

SPEC = "levels = id\ngaussian : y ~ x + M1[id]*1"


def _data():
    return sim_lmm(30, 4, 1.0, 0.5, sd_b=0.6, sd_e=0.4, seed=3)


def _fit_with_records(caplog, data=None):
    """The fit of SPEC and its debug records, engine first."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="jointfit.estimation"):
        fit = fit_spec(SPEC, _data() if data is None else data)
    return fit, [r.getMessage() for r in caplog.records if r.name == "jointfit.estimation"]


def _trials(monkeypatch):
    """Every point total_loglik is asked for, in order."""
    seen, total = [], LikelihoodEngine.total_loglik

    def recorded(self, params):
        seen.append(np.array(params, dtype=float))
        return total(self, params)

    monkeypatch.setattr(LikelihoodEngine, "total_loglik", recorded)
    return seen


def test_cluster_scores_sum_to_the_score(monkeypatch):
    # (PASS_DOUBLES, chunks): 4-row clusters on 7 nodes
    d, results = _data(), []
    for budget, n_chunks in ((1, 30), (5 * 4 * 7, 6), (2**30, 1)):
        monkeypatch.setattr(estimation, "PASS_DOUBLES", budget)
        eng = _engine(SPEC, d)
        assert len(eng.chunks) == n_chunks
        x = start_values(eng) + 0.1
        G = eng.cluster_scores(x)
        assert G.shape == (eng.n_clusters, len(x)) == (30, 4)
        assert np.array_equal(np.sum(G, axis=0), eng.score(x))
        results.append(G)
    for G in results[1:]:
        assert np.array_equal(G, results[0])


def test_first_direction_is_the_bhhh_step(monkeypatch, caplog):
    d = _data()
    eng = _engine(SPEC, d)
    x0 = start_values(eng)
    G = eng.cluster_scores(x0)
    want = np.linalg.solve(G.T @ G, np.sum(G, axis=0))  # -(G'G)^-1 g, g = -sum G
    seen = _trials(monkeypatch)
    fit, records = _fit_with_records(caplog, d)
    assert fit.converged
    # the start point, then the line search's first trial at alpha = 1
    assert np.array_equal(seen[0], x0)
    assert np.allclose(seen[1] - x0, want, rtol=1e-10, atol=1e-12)
    m = re.fullmatch(r"start: BHHH, condition number (\S+)", records[1])
    assert m, records[1]
    assert float(m[1]) == pytest.approx(np.linalg.cond(G.T @ G), rel=1e-5)


def test_singular_outer_product_starts_from_identity(monkeypatch, caplog):
    reference = fit_spec(SPEC, _data())
    scores, calls = LikelihoodEngine.cluster_scores, []

    def zero_column(self, x):
        G = scores(self, x)
        if not calls:  # the start gradient only
            G[:, 1] = 0.0
        calls.append(1)
        return G

    monkeypatch.setattr(LikelihoodEngine, "cluster_scores", zero_column)
    seen = _trials(monkeypatch)
    fit, records = _fit_with_records(caplog)
    assert records[1] == "start: identity (outer product not positive definite)"
    # the first trial is the unscaled step -g from I, g = -sum G
    G = scores(_engine(SPEC, _data()), seen[0])
    G[:, 1] = 0.0
    assert np.array_equal(seen[1], seen[0] + np.sum(G, axis=0))
    assert fit.converged
    assert fit.loglik == pytest.approx(reference.loglik, rel=1e-10)
    assert np.allclose(fit.estimates, reference.estimates, atol=1e-4 * reference.std_errors())


def test_central_difference_start_gradient_starts_from_identity(monkeypatch, caplog):
    reference = fit_spec(SPEC, _data())
    scores, calls = LikelihoodEngine.cluster_scores, []

    def raises_first(self, x):
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("no score at the start")
        return scores(self, x)

    monkeypatch.setattr(LikelihoodEngine, "cluster_scores", raises_first)
    fit, records = _fit_with_records(caplog)
    assert records[1] == "start: identity (central-difference gradient)"
    first = re.search(r"(\d+) fallbacks, (\d+) resets$", records[2])
    assert first and first.groups() == ("1", "0")
    assert fit.converged
    assert fit.loglik == pytest.approx(reference.loglik, rel=1e-10)
    assert np.allclose(fit.estimates, reference.estimates, atol=1e-4 * reference.std_errors())


def test_outer_product_not_finite_starts_from_identity():
    G = np.full((5, 2), 1e200)  # finite scores whose squares overflow
    Hinv, start = _bhhh_start(G, 2)
    assert np.array_equal(Hinv, np.eye(2))
    assert start == "identity (outer product not finite)"


def test_resets_are_counted(monkeypatch, caplog):
    # a start matrix whose first direction is not a descent direction
    monkeypatch.setattr(estimation, "_bhhh_start", lambda G, n: (-np.eye(n), "negated"))
    fit, records = _fit_with_records(caplog)
    assert fit.converged
    assert records[1] == "start: negated"
    resets = [int(re.search(r"(\d+) resets$", r)[1]) for r in records if r.startswith("iteration")]
    assert resets[0] == 1 and resets == sorted(resets)


def test_information_without_levels_is_nan_where_a_row_score_is_not(monkeypatch):
    d = _data()
    eng = _engine("gaussian : y ~ x", make_dataset({v: d.column(v) for v in "xy"}))
    x = start_values(eng) + 0.1
    want = eng.information(x)
    rows = LikelihoodEngine._row_terms

    def one_infinite(self, i, *args, **kwargs):
        out = rows(self, i, *args, **kwargs)
        out[3, 0] = np.inf  # row 3's score in its submodel's first parameter
        return out

    monkeypatch.setattr(LikelihoodEngine, "_row_terms", one_infinite)
    got = eng.information(x)
    k = eng.deps[0][0]
    assert np.all(np.isnan(got[k])) and np.all(np.isnan(got[:, k]))
    keep = np.delete(np.arange(len(x)), k)
    assert np.array_equal(got[np.ix_(keep, keep)], want[np.ix_(keep, keep)])
