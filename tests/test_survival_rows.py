"""A survival submodel's rows: d log h(t) - H(t) from one frame.

Evaluator.loglik_matrix takes log h, and H unless H is integrated, from one
eta on all of a frame's rows and drops a censored row's log h.  It must
give the bits of the formula it replaced, which evaluated eta again on a
frame of the event rows and added log h to -H there.  Every survival model
of test_batch.MODELS and the fp model of test_time_blocks are checked, on
the likelihood engine's kept frames, for one point and a 4-point batch.
"""

import numpy as np
import pytest

import jointfit as jf
from jointfit import families
from jointfit.quadrature import Frame

import test_batch
from test_time_blocks import FP_PARAMS, FP_SPEC, fp_data

MODELS = {name: entry for name, entry in test_batch.MODELS.items()
          if any(sub.is_survival for sub in jf.parse_spec_text(entry[0]).submodels)}
MODELS["fp_weibull"] = (FP_SPEC, lambda: fp_data(n=300), FP_PARAMS, None)


def event_row_loglik(ev, params, i, draws, at):
    """Oracle: ll = -H, then ll[d > 0] += log h, with log h evaluated on a
    frame of the event rows only."""
    sub = ev.spec.submodels[i]
    ll = -ev.cumhazard(params, i, at, draws)
    events = at.y[:, 1] > 0
    if events.any():
        fr = Frame(at.rows[events], at.t[events])
        eta = ev.eta(params, i, fr, draws, "value")
        if families.FAMILIES[sub.family].log_hazard is None:  # rp
            d1 = ev.eta(params, i, fr, draws, "d1")
            with np.errstate(divide="ignore", invalid="ignore"):
                logh = np.where(d1 > 0, np.log(np.maximum(d1, 1e-300)) + eta, -np.inf)
        else:
            logh = eta + families.log_hazard_offset(sub.family, fr.t[:, None],
                                                    ev._ap(params, i))
        if sub.bhazard_var is not None:
            b = ev.data.column(sub.bhazard_var)[fr.rows]
            logh = np.log(b[:, None] + np.exp(logh))
        ll[events] = ll[events] + logh
    return np.where(np.isnan(ll), -np.inf, ll)


def engine_and_points(monkeypatch, name):
    """The model's engine and 4 points: its parameters (or start values)
    and 3 around them.  rp's second point has eta' <= 0 at some censored
    and some event times, and eta' > 0 at others."""
    monkeypatch.setitem(test_batch.MODELS, name, MODELS[name])
    spec_text, data = test_batch._model(monkeypatch, name)
    eng = test_batch._engine(spec_text, data)
    P = test_batch._points(name, eng, n_points=4)
    if name == "rp":
        P[1, eng.ev.layout.labels.index("rcs():3")] = 0.05
    return eng, P


def survival_frames(eng):
    """(submodel, kept frame) of each chunk's survival submodels."""
    return [(i, at) for chunk in eng.chunks for i, (local, at) in enumerate(chunk["subs"])
            if len(local) and eng.spec.submodels[i].is_survival]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_loglik_matrix_matches_event_row_oracle(monkeypatch, name):
    eng, P = engine_and_points(monkeypatch, name)
    ev = eng.ev
    frames = survival_frames(eng)
    assert frames
    for i, at in frames:
        for x in P:
            draws = eng.draws(x)
            assert np.array_equal(ev.loglik_matrix(x, i, draws, at),
                                  event_row_loglik(ev, x, i, draws, at))
        draws, params = eng._columns(P)
        assert np.array_equal(ev.loglik_matrix(params, i, draws, at),
                              event_row_loglik(ev, params, i, draws, at))


def test_rp_points_have_nonpositive_slopes_at_censored_and_event_times(monkeypatch):
    eng, P = engine_and_points(monkeypatch, "rp")
    at = eng.ev.observed_frame(0)
    slope = eng.ev.eta(P[1], 0, at, {}, "d1")[:, 0]
    censored = at.y[:, 1] == 0
    for rows in (censored, ~censored):
        assert np.any(slope[rows] <= 0) and np.any(slope[rows] > 0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kept_survival_frames_hold_only_node_blocks(monkeypatch, name):
    eng, P = engine_and_points(monkeypatch, name)
    eng.total_loglik(P)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x in P:
            eng.total_loglik(x)
            eng.score(x)
    for i, at in survival_frames(eng):
        children = {k: v for k, v in at.kept.items() if isinstance(v, Frame)}
        assert all(k[0] == "nodes" and v.block for k, v in children.items())
        rp = families.FAMILIES[eng.spec.submodels[i].family].log_hazard is None
        integrated = not (rp or eng.ev.closed_form_cumhazard(i))
        assert bool(children) == integrated
