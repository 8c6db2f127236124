"""Post-estimation statistics over fitted models.

Statistics are evaluated per predicted row, either with all random effects
set to zero (fixedonly) or by integrating the statistic itself over the
random-effect distribution with the fit's node rule (marginal).  The
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
    """A FitResult re-attached to data, ready for prediction."""

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
        at, CIF_GL_POINTS, node_width(model.params, draws))


def timelost(model: FittedModel, cause: int, at, draws, causes) -> np.ndarray:
    """Integral of the cause's CIF over (0, at.t] by nested quadrature."""
    return integrate_to(lambda fr: cif(model, cause, fr, draws, causes),
                        at, CIF_GL_POINTS, node_width(model.params, draws))


def totaltimelost(model: FittedModel, at, draws, causes) -> np.ndarray:
    """Integral of 1 - S over (0, at.t], S the survival from all causes: the
    sum of the causes' timelost in one integral instead of nested ones."""
    return integrate_to(
        lambda fr: -np.expm1(-_total_cumhazard(model, fr, draws, causes)),
        at, CIF_GL_POINTS, node_width(model.params, draws))


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
    prediction submodel.
    """
    if req.statistic in DIFF_STATS:
        return _predict_difference(model, req)
    if not 1 <= req.predmodel <= len(model.spec.submodels):
        raise EvalError(f"predmodel {req.predmodel} out of range")
    m = req.predmodel - 1
    base = model._with_overrides(req.at)
    rows = base.ev.subs[m].rv.observed_rows
    t = (np.broadcast_to(np.asarray(req.times, dtype=float), (len(rows),)).copy()
         if req.times is not None else _default_times(base, m, rows))
    draws, weights = _draws_weights(base, req.type)
    # a transient frame: a prediction keeps no values between calls
    vals = _stat_matrix(base, req, Frame(rows, t), draws)
    out = vals @ weights
    return {"rows": rows, "times": t, "values": out}


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
