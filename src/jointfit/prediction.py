"""Post-estimation statistics over fitted models.

Statistics are evaluated per predicted row, either with all random effects
set to zero (fixedonly) or by integrating the statistic itself over the
random-effect distribution with the fit's node rule (marginal).  Rows with
the same time and the same static values in every submodel's columns get
the same value, so each distinct (time, covariate pattern) is evaluated
once, on one frame, and its value copied to its rows.  The
competing-risks calculus treats every survival submodel as a
cause-specific hazard model unless a causes subset is given.
"""

from dataclasses import dataclass, field

import numpy as np

from . import families
from .data import Dataset, build_levels
from .estimation import FitResult, LikelihoodEngine, deserialize_bases
from .evaluator import EvalError, Evaluator, node_width
from .formula import parse_spec_text, validate_spec
from .quadrature import Frame, integrate_to

CIF_GL_POINTS = 50

DIFF_STATS = {"cifdifference": "cif", "hdifference": "hazard",
              "rmstdifference": "rmst", "mudifference": "mu",
              "etadifference": "eta"}


@dataclass
class PredictRequest:
    statistic: str
    predmodel: int = 1                 # 1-based submodel index
    type: str = "fixedonly"            # fixedonly | marginal
    at: dict[str, float] = field(default_factory=dict)
    contrast: tuple[str, float, float] | None = None
    causes: tuple[int, ...] = ()       # 1-based survival submodel indices
    times: np.ndarray | None = None


class FittedModel:
    """A FitResult re-attached to data, ready for prediction.  EvalError
    unless the fit's labels and estimates are its spec's parameters."""

    def __init__(self, fit: FitResult, data: Dataset, seed: int | None = None):
        self.fit = fit
        spec = parse_spec_text(fit.spec_text)
        if spec.levels:
            data = build_levels(data, spec.levels)
        spec.intmethod = fit.intmethod
        spec.ip = fit.ip
        self.spec = validate_spec(spec, data)
        self.data = data
        self.ev = Evaluator(self.spec, data, bases=deserialize_bases(fit.bases))
        labels = self.ev.layout.labels
        if not len(fit.labels) == len(fit.estimates) == len(labels):
            raise EvalError(f"the fit has {len(fit.labels)} labels and {len(fit.estimates)} "
                            f"estimates, its spec {len(labels)} parameters")
        for k, (got, want) in enumerate(zip(fit.labels, labels)):
            if got != want:
                raise EvalError(f"the fit's parameter {k + 1} is {got!r}, its spec's {want!r}")
        self.engine = LikelihoodEngine(self.ev, seed=fit.seed if seed is None else seed)
        self.params = np.asarray(fit.estimates, dtype=float)

    def _with_overrides(self, at: dict[str, float]) -> "FittedModel":
        """A clone on the data with the at overrides.  It shares the
        engine, whose draws, zero draws and weights, all that a prediction
        reads of it, depend on the spec and the seed alone."""
        if not at:
            return self
        clone = object.__new__(FittedModel)
        clone.fit = self.fit
        clone.spec = self.spec
        clone.data = self.data.with_overrides(at)
        clone.ev = Evaluator(self.spec, clone.data, bases=self.ev.bases)
        clone.engine = self.engine
        clone.params = self.params
        return clone


def _survival_indices(spec) -> list[int]:
    return [i for i, s in enumerate(spec.submodels) if s.is_survival]


def _default_times(model: FittedModel, m: int, rows: np.ndarray) -> np.ndarray:
    sub = model.spec.submodels[m]
    info = model.ev.subs[m]
    if info.rv.kind == "time-event":
        sel = np.searchsorted(info.rv.observed_rows, rows)
        return info.rv.values[sel, 0]
    if sub.timevar:
        return model.data.column(sub.timevar)[rows]
    return np.zeros(len(rows))


def _draws_weights(model: FittedModel, type_: str):
    if type_ == "fixedonly":
        return model.engine.zero_draws(), np.ones(1)
    return model.engine.draws(model.params), model.engine.weights


def _total_cumhazard(model: FittedModel, at, draws, causes) -> np.ndarray:
    return sum(model.ev.cumhazard(model.params, c, at, draws) for c in causes)


def cif(model: FittedModel, cause: int, at, draws, causes) -> np.ndarray:
    """Cause-specific cumulative incidence over (0, at.t], (n, nq)."""
    return integrate_to(
        lambda fr: model.ev.hazard(model.params, cause, fr, draws)
        * np.exp(-_total_cumhazard(model, fr, draws, causes)),
        at, CIF_GL_POINTS, node_width(draws))


def timelost(model: FittedModel, cause: int, at, draws, causes) -> np.ndarray:
    """Integral of the cause's CIF over (0, at.t] by nested quadrature."""
    return integrate_to(lambda fr: cif(model, cause, fr, draws, causes),
                        at, CIF_GL_POINTS, node_width(draws))


def totaltimelost(model: FittedModel, at, draws, causes) -> np.ndarray:
    """Integral of 1 - S over (0, at.t], S the survival from all causes: the
    sum of the causes' timelost in one integral instead of nested ones."""
    return integrate_to(
        lambda fr: -np.expm1(-_total_cumhazard(model, fr, draws, causes)),
        at, CIF_GL_POINTS, node_width(draws))


def _stat_matrix(model: FittedModel, req: PredictRequest, at, draws) -> np.ndarray:
    spec = model.spec
    p = model.params
    m = req.predmodel - 1
    sub = spec.submodels[m]
    stat = req.statistic
    if stat in ("hazard", "chazard", "logchazard", "survival", "cif", "timelost") \
            and not sub.is_survival:
        raise EvalError(f"statistic {stat!r} needs a survival prediction submodel")

    if stat == "eta":
        return model.ev.eta(p, m, at, draws, "value")
    if stat == "mu":
        if families.FAMILIES[sub.family].link is None:
            raise EvalError(f"mu is undefined for family {sub.family!r}")
        return families.mean_value(sub.family, model.ev.eta(p, m, at, draws, "value"))
    if stat == "hazard":
        return model.ev.hazard(p, m, at, draws)
    if stat == "chazard":
        return model.ev.cumhazard(p, m, at, draws)
    if stat == "logchazard":
        return np.log(model.ev.cumhazard(p, m, at, draws))
    if stat == "survival":
        return model.ev.survival(p, m, at, draws)

    causes = [c - 1 for c in req.causes] if req.causes else _survival_indices(spec)
    if not causes:
        raise EvalError(f"statistic {stat!r} needs at least one survival submodel")
    for c in causes:
        if not spec.submodels[c].is_survival:
            raise EvalError(f"cause {c + 1} is not a survival submodel")
    if stat == "cif":
        if m not in causes:
            raise EvalError("predmodel must be one of the causes for cif")
        return cif(model, m, at, draws, causes)
    if stat == "timelost":
        return timelost(model, m, at, draws, causes)
    if stat == "totaltimelost":
        return totaltimelost(model, at, draws, causes)
    if stat == "rmst":
        return at.t[:, None] - totaltimelost(model, at, draws, causes)
    raise EvalError(f"unknown statistic {req.statistic!r}")


def predict_stat(model: FittedModel, req: PredictRequest) -> dict[str, np.ndarray]:
    """Per-row prediction vector for one statistic.

    Returns a dict with row indices, evaluation times, and values.
    Predictions are made only for rows with a non-missing response of the
    prediction submodel, at req.times (one time for every row, or one per
    row; finite and non-negative, else EvalError) or else at each row's
    observed time.  Each distinct row key (_distinct_rows) is evaluated
    once.
    """
    if req.statistic in DIFF_STATS:
        return _predict_difference(model, req)
    if not 1 <= req.predmodel <= len(model.spec.submodels):
        raise EvalError(f"predmodel {req.predmodel} out of range")
    m = req.predmodel - 1
    base = model._with_overrides(req.at)
    rows = base.ev.subs[m].rv.observed_rows
    t = (_request_times(req, len(rows)) if req.times is not None
         else _default_times(base, m, rows))
    draws, weights = _draws_weights(base, req.type)
    first, inverse = _distinct_rows(base.ev, rows, t)
    # a transient frame: a prediction keeps no values between calls
    vals = _stat_matrix(base, req, Frame(rows[first], t[first]), draws)
    # each row summed alone, so that it does not depend on the rows beside it
    out = np.einsum("ij,j->i", vals, weights)[inverse]
    return {"rows": rows, "times": t, "values": out}


def _request_times(req: PredictRequest, n: int) -> np.ndarray:
    """The request's times, one per prediction row: one time for every
    row, or n of them."""
    t = np.asarray(req.times, dtype=float)
    if t.ndim > 1 or t.size not in (1, n):
        raise EvalError(f"times holds {t.size} values; give 1, or one per prediction "
                        f"row ({n})")
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise EvalError("prediction times must be finite and non-negative")
    return np.broadcast_to(t.reshape(-1), (n,)).copy()


def _distinct_rows(ev: Evaluator, rows: np.ndarray, t: np.ndarray):
    """The first of each set of prediction rows with one key, and each
    row's key index.  A row's key is its time and its static values in
    every column of every submodel (the causes' and link targets'
    included): all that a prediction reads of a row, since time factors
    depend on the time alone.  Keys compare as bytes, so 0.0 and -0.0,
    or two NaN payloads, stay apart.  A prediction that read a row's
    cluster (empirical Bayes) would need the cluster in the key."""
    keys = np.column_stack([t] + [c.static[rows] for s in ev.subs for c in s.columns
                                  if c.static is not None])
    raw = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inverse = np.unique(raw[:, 0], return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _predict_difference(model: FittedModel, req: PredictRequest):
    if req.contrast is None:
        raise EvalError(f"{req.statistic} needs a contrast")
    name, v1, v2 = req.contrast
    base_stat = DIFF_STATS[req.statistic]
    res = []
    for v in (v1, v2):
        sub_req = PredictRequest(
            statistic=base_stat, predmodel=req.predmodel, type=req.type,
            at={**req.at, name: v}, causes=req.causes, times=req.times)
        res.append(predict_stat(model, sub_req))
    return {"rows": res[0]["rows"], "times": res[0]["times"],
            "values": res[1]["values"] - res[0]["values"]}
