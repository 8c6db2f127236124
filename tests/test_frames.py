"""Kept evaluation frames.

The likelihood engine keeps one frame per chunk and submodel; the
submodel designs compiled there (basis columns, the time variable and
static values, which do not depend on the parameters) are built on first
use and reused by every later evaluation.  A warm engine must give the same bits as a fresh
one at any parameters, and frames built for predictions keep nothing.
"""

import numpy as np
import pytest

import jointfit as jf
from jointfit import basis, estimation
from jointfit.estimation import LikelihoodEngine, fit_to_json
from jointfit.evaluator import Evaluator
from jointfit.prediction import FittedModel, PredictRequest, predict_stat
from jointfit.quadrature import Frame

import test_batch
from conftest import make_dataset
from test_time_blocks import FP_PARAMS, FP_SPEC, JOINT_PARAMS, JOINT_SPEC, fp_data, joint_data

# more than one chunk each at a budget of 2048 values, so that several
# chunks' frames are kept
MODELS = {"joint_ev": (JOINT_SPEC, JOINT_PARAMS, lambda: joint_data(n_clusters=140)),
          "fp_weibull": (FP_SPEC, FP_PARAMS, lambda: fp_data(n=4200))}


def engine(kind):
    spec_text, params, make_data = MODELS[kind]
    data = make_data()
    spec = jf.validate_spec(jf.parse_spec_text(spec_text), data)
    return LikelihoodEngine(Evaluator(spec, data)), np.asarray(params)


def count_rcs_evals(monkeypatch):
    calls = []
    rcs_eval = basis.RcsBasis.eval

    def counted(self, t, order="value"):
        calls.append(order)
        return rcs_eval(self, t, order)

    monkeypatch.setattr(basis.RcsBasis, "eval", counted)
    return calls


@pytest.mark.parametrize("kind", ["joint_ev", "fp_weibull"])
def test_warm_engine_matches_fresh_engine(monkeypatch, kind):
    monkeypatch.setattr(estimation, "PASS_DOUBLES", 2048)
    warm, p1 = engine(kind)
    assert len(warm.chunks) > 1
    p2 = p1 + 0.01
    for p in (p1, p2, p1):
        fresh = engine(kind)[0]
        assert np.array_equal(warm.cluster_logliks(p), fresh.cluster_logliks(p))


def test_nested_integral_keeps_one_level_of_node_blocks():
    # iEV[y] in a hazard: 30 cumulative-hazard nodes, each with its own 30
    # iEV nodes; only the outer node blocks are kept
    data = joint_data(n_clusters=140)
    spec = jf.validate_spec(jf.parse_spec_text(JOINT_SPEC.replace("EV[y]", "iEV[y]")), data)
    warm = LikelihoodEngine(Evaluator(spec, data))
    p = np.asarray(JOINT_PARAMS)
    for q in (p, p + 0.01, p):
        fresh = LikelihoodEngine(Evaluator(spec, data))
        assert np.array_equal(warm.cluster_logliks(q), fresh.cluster_logliks(q))

    def frames(fr):
        yield fr
        for v in fr.kept.values():
            if isinstance(v, Frame):
                yield from frames(v)

    kept = [fr for chunk in warm.chunks for _, top in chunk["subs"] for fr in frames(top)]
    blocks = [fr for fr in kept if fr.block]
    assert blocks
    for fr in blocks:
        assert not any(isinstance(v, Frame) for v in fr.kept.values())
        assert not any(k[0] == "static" for k in fr.kept)


def test_a_matrix_of_points_keeps_the_node_blocks_of_one_point():
    # the EV[y] hazard's cumulative hazard integrates over node blocks that
    # its chunks' kept frames keep
    spec_text, make_data, _, _ = test_batch.MODELS["ev_rcs"]
    eng = test_batch._engine(spec_text, make_data())
    P = test_batch._points("ev_rcs", eng, n_points=20)

    def node_blocks():
        # each kept node block's key and the bytes of its rows, times and
        # kept basis values
        kept = [(key, fr.rows.nbytes + fr.t.nbytes + sum(v.nbytes for v in fr.kept.values()))
                for chunk in eng.chunks for i, (local, at) in enumerate(chunk["subs"])
                if len(local) and eng.spec.submodels[i].is_survival
                for key, fr in at.kept.items() if isinstance(fr, Frame)]
        assert kept
        return sorted(kept)

    eng.total_loglik(P[0])
    one = node_blocks()
    for x in P:
        eng.total_loglik(x)
    assert node_blocks() == one


USER_SPEC = "user : y ~ rcs(time, df = 3) + time:x + ap(1) | userf=logl_gaussian timevar=time\n"


def user_data(n=60, seed=8):
    rng = np.random.default_rng(seed)
    time = rng.uniform(0.1, 5.0, n)
    x = rng.normal(size=n)
    return make_dataset({"time": time, "x": x,
                         "y": 1.0 + 0.4 * np.sqrt(time) + 0.2 * time * x + rng.normal(0.0, 0.5, n)})


def test_user_family_accessors_use_the_kept_frame(monkeypatch):
    data = user_data()
    eng = LikelihoodEngine(Evaluator(jf.validate_spec(jf.parse_spec_text(USER_SPEC), data), data))
    theta = jf.start_values(eng)
    calls = count_rcs_evals(monkeypatch)
    eng.total_loglik(theta)
    assert calls == ["value"]
    calls.clear()
    eng.total_loglik(theta + 0.01)
    assert calls == []


def test_user_family_fit_same_bytes_on_transient_frames(monkeypatch):
    data = user_data()

    def fit():
        spec = jf.validate_spec(jf.parse_spec_text(USER_SPEC), data)
        return fit_to_json(jf.maximize(spec, data, jf.FitControls()))

    kept = fit()
    observed = Evaluator.observed_frame
    monkeypatch.setattr(Evaluator, "observed_frame",
                        lambda self, i, sel=slice(None), keep=False: observed(self, i, sel))
    assert fit() == kept


def test_prediction_frames_keep_nothing(monkeypatch):
    spec_text, params, _ = MODELS["joint_ev"]
    data = joint_data()
    labels = Evaluator(jf.validate_spec(jf.parse_spec_text(spec_text), data), data).layout.labels
    fit = jf.FitResult(np.asarray(params), labels, None, 0.0, 0, True, spec_text,
                       ("ghermite",), (7,), 0)
    model = FittedModel(fit, data)
    kept = []
    eta = Evaluator.eta

    def recorded(self, params, sub_idx, at, draws, order="value"):
        kept.append(at.kept)
        return eta(self, params, sub_idx, at, draws, order)

    monkeypatch.setattr(Evaluator, "eta", recorded)
    for stat in ("cif", "rmst", "hazard"):
        predict_stat(model, PredictRequest(statistic=stat, predmodel=2, type="marginal"))
    assert kept and all(k is None for k in kept)


@pytest.mark.filterwarnings("ignore:correlation matrix of dimension 2:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(test_batch.MODELS))
def test_kept_designs_never_go_stale(monkeypatch, name):
    # the compiled designs hold no value of the parameters: an engine that
    # evaluates x1, x2 and x1 again gives a fresh engine's bits at each,
    # and then eta on each kept frame (and node block) it evaluated, at
    # each order, has the bits of eta on a transient frame of its rows and
    # times, at x2
    spec_text, data = test_batch._model(monkeypatch, name)
    warm = test_batch._engine(spec_text, data)
    x1, x2 = test_batch._points(name, warm)[:2]
    seen = {}
    eta = Evaluator.eta

    def recorded(self, params, i, at, draws, order="value"):
        if at.kept is not None:
            seen[(id(at), i, order)] = at
        return eta(self, params, i, at, draws, order)

    monkeypatch.setattr(Evaluator, "eta", recorded)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x in (x1, x2, x1):
            fresh = test_batch._engine(spec_text, data)
            assert np.array_equal(warm.cluster_logliks(x), fresh.cluster_logliks(x))
            assert np.array_equal(warm.score(x), fresh.score(x), equal_nan=True)
        blocks = [v for c in warm.chunks for _, at in c["subs"] for v in at.kept.values()
                  if isinstance(v, Frame)]
        assert seen and any(at.block for at in seen.values()) == bool(blocks)
        draws = warm.draws(x2)
        for (_, i, order), at in seen.items():
            kept = warm.ev.eta(x2, i, at, draws, order)
            assert np.array_equal(kept, warm.ev.eta(x2, i, Frame(at.rows, at.t), draws, order))
