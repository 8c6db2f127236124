"""Complex-predictor evaluation engine.

Expands each submodel's components into coefficient columns, builds the
spline/fp bases from the data, and evaluates eta(t) and its time
derivatives/integral at any (row, time, random-effect draw) combination,
including cross-submodel EV/XB links.  Also assembles the per-observation
log-likelihood matrices used by the estimation engine.
"""

from dataclasses import dataclass, field

import numpy as np

from . import families
from .basis import FpBasis, RcsBasis, rcs_knots
from .data import Dataset, ResponseView, response_view
from .formula import Element, ModelSpec, SpecError
from .quadrature import integrate_to
from .userfam import UserFamilyContext, get_user_family

_LINK_BASE = {"EV": 0, "dEV": 1, "d2EV": 2, "iEV": -1,
              "XB": 0, "dXB": 1, "d2XB": 2, "iXB": -1}
_ORDER_NUM = {"value": 0, "d1": 1, "d2": 2, "integral": -1}
_NUM_ORDER = {0: "value", 1: "d1", 2: "d2", -1: "integral"}
TIME_GL_POINTS = 30   # nodes of the cumulative-hazard and iEV time integrals


class EvalError(ValueError):
    pass


def _column(values, bi):
    """Column bi of a basis's values as (n, 1); all of a link's or the
    time variable's values when bi is None."""
    return values if bi is None else values[:, bi:bi + 1]


def _product_deriv(tf, factor, order):
    """d1 or d2 of a product of time factors by a running product rule,
    (fg)' = f'g + g'f and (fg)'' = f''g + g''f + f'g' + g'f', folded over
    the factors in order.  factor(el, bi, order) gives one factor's values."""
    second = order == "d2"
    for k, (el, bi) in enumerate(tf):
        fv, f1 = factor(el, bi, "value"), factor(el, bi, "d1")
        f2 = factor(el, bi, "d2") if second else None
        if k == 0:
            v, d1, d2 = fv, f1, f2
            continue
        if second:
            d2 = d2 * fv + f2 * v + d1 * f1 + f1 * d1
        d1 = d1 * fv + f1 * v
        v = v * fv
    return d2 if second else d1


@dataclass
class Column:
    factors: list[tuple[Element, int | None]]
    static: np.ndarray                      # (n_rows,) time-constant product
    re_names: list[str]
    time_factors: list[tuple[Element, int | None]]
    constrained: bool
    label: str
    param: int | None = None


@dataclass
class SubInfo:
    rv: ResponseView
    columns: list[Column]
    ap_idx: list[int] = field(default_factory=list)
    has_time: bool = False


class ParamLayout:
    """Flat parameter vector order: per submodel its coefficients then
    ancillaries, then per-level variance/correlation parameters."""

    def __init__(self):
        self.labels: list[str] = []
        self.level_log_sd: dict[str, list[int]] = {}
        self.level_corr: dict[str, list[int]] = {}

    def add(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    @property
    def n_params(self) -> int:
        return len(self.labels)


class Evaluator:
    def __init__(self, spec: ModelSpec, data: Dataset, bases: dict | None = None):
        if not spec.validated:
            raise SpecError("model spec must be validated before evaluation")
        self.spec = spec
        self.data = data
        self.bases: dict[tuple[int, int, int], object] = {}
        self.basis_of: dict[int, object] = {}   # id(element) -> its basis
        self.subs: list[SubInfo] = []
        self.layout = ParamLayout()
        self._build(bases or {})

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self, given_bases: dict) -> None:
        spec, data = self.spec, self.data
        for i, sub in enumerate(spec.submodels):
            rv = response_view(data, sub.response)
            columns: list[Column] = []
            for j, comp in enumerate(sub.components):
                columns.extend(self._expand_component(i, j, sub, comp, rv, given_bases))
            if sub.intercept:
                columns.append(Column(
                    factors=[], static=np.ones(data.n_rows), re_names=[],
                    time_factors=[], constrained=False, label="_cons",
                ))
            info = SubInfo(rv=rv, columns=columns)
            info.has_time = any(c.time_factors for c in columns)
            self.subs.append(info)

        # parameter layout: coefficients + ancillaries per submodel ...
        for i, sub in enumerate(spec.submodels):
            info = self.subs[i]
            for col in info.columns:
                if not col.constrained:
                    col.param = self.layout.add(col.label)
            ap_labels = list(families.FAMILIES[sub.family].ancillary)
            ap_labels += [f"_ap{k + 1}" for k in range(sub.user_ap)]
            info.ap_idx = [self.layout.add(lbl) for lbl in ap_labels]
        # ... then per-level covariance parameters
        for level in spec.levels:
            names = spec.re_layout[level]
            self.layout.level_log_sd[level] = [
                self.layout.add(f"log_sd({name})") for name in names
            ]
            corr_idx = []
            if spec.covariance == "unstructured" and len(names) > 1:
                for a in range(1, len(names)):
                    for b in range(a):
                        corr_idx.append(
                            self.layout.add(f"atanh_corr({names[a]},{names[b]})")
                        )
            self.layout.level_corr[level] = corr_idx

    def _expand_component(self, i, j, sub, comp, rv, given_bases) -> list[Column]:
        """Tensor-expand a component's multi-column bases into columns."""
        data = self.data
        timevar = sub.timevar or ""
        per_el: list[list[tuple[Element, int | None]]] = []
        for k, el in enumerate(comp.elements):
            if el.kind in ("rcs", "fp"):
                b = self._make_basis(i, j, k, el, sub, rv, given_bases)
                per_el.append([(el, c) for c in range(b.df)])
            else:
                per_el.append([(el, None)])
        combos: list[list[tuple[Element, int | None]]] = [[]]
        for options in per_el:
            combos = [c + [o] for c in combos for o in options]

        cols = []
        multi = len(combos) > 1
        for idx, factors in enumerate(combos):
            static = np.ones(data.n_rows)
            re_names, time_factors, labels = [], [], []
            for el, bi in factors:
                if el.kind == "re":
                    re_names.append(el.var)
                    labels.append(el.var)
                    continue
                if el.kind == "link":
                    time_factors.append((el, bi))
                    labels.append(f"{el.link_kind}[]")
                    continue
                if el.is_time_function(timevar):
                    time_factors.append((el, bi))
                    labels.append(el.var if el.kind == "variable" else f"{el.kind}()")
                    continue
                # time-constant factor
                if el.kind == "variable":
                    static = static * data.column(el.var)
                    labels.append(el.var)
                elif el.kind == "exposure_log":
                    static = static * np.log(data.column(el.var))
                    labels.append(f"exposure({el.var})")
                elif el.kind in ("rcs", "fp"):
                    static = static * self._static_basis_col(el, bi)
                    labels.append(f"{el.kind}()")
                else:
                    raise EvalError(f"unexpected element kind {el.kind!r}")
            label = ":".join(labels)
            cols.append(Column(factors, static, re_names, time_factors,
                               comp.constrained, label))
        if multi:
            for n, col in enumerate(cols, start=1):
                col.label = col.label + f":{n}"
        return cols

    def _static_basis_col(self, el, bi):
        basis = self.basis_of[id(el)]
        vals = self.data.column(el.var)
        out = np.full(len(vals), np.nan)
        ok = ~np.isnan(vals)
        if el.log or el.kind == "fp":
            ok &= vals > 0
        if ok.any():
            out[ok] = basis.eval(vals[ok], "value")[:, bi]
        return out

    def _make_basis(self, i, j, k, el, sub, rv, given_bases):
        key = (i, j, k)
        if key in given_bases:
            self.bases[key] = self.basis_of[id(el)] = given_bases[key]
            return given_bases[key]
        if el.kind == "fp":
            b = FpBasis(el.powers)
        else:
            obs = rv.observed_rows
            values = self.data.column(el.var)[obs]
            if el.knots is not None:
                knots = np.log(np.asarray(el.knots)) if el.log else np.asarray(el.knots)
            else:
                event_mask = None
                if el.event:
                    if rv.kind != "time-event":
                        raise SpecError("event-only knots need a survival response")
                    event_mask = rv.values[:, 1]
                knots = rcs_knots(values, el.df, event_only=el.event,
                                  event_mask=event_mask, log_time=el.log)
            b = RcsBasis(knots, log_time=el.log)
            if el.orthog:
                vals = values[~np.isnan(values)]
                if el.log:
                    vals = vals[vals > 0]
                b.fit_orthog(vals)
        self.bases[key] = self.basis_of[id(el)] = b
        return b

    # ------------------------------------------------------------------
    # predictor evaluation
    # ------------------------------------------------------------------

    def n_params(self) -> int:
        return self.layout.n_params

    def _factor_values(self, params, el, rows, t, draws, order):
        """Every column of one time-varying element at times t: (n, df) for a
        spline/fp basis, (n, 1) for the time variable, (n, nq) for a link."""
        if el.kind == "link":
            return self._link_eval(params, el, rows, t, draws, order)
        if el.kind == "variable":
            if order == "value":
                out = t
            elif order == "d1":
                out = np.ones_like(t)
            elif order == "d2":
                out = np.zeros_like(t)
            else:
                out = 0.5 * t**2
            return out[:, None]
        return self.basis_of[id(el)].eval(t, order)

    def _link_eval(self, params, el, rows, t, draws, order):
        base = _LINK_BASE[el.link_kind]
        req = _ORDER_NUM[order]
        is_ev = el.link_kind.endswith("EV")
        target = el.target_index

        def raw(ordname, rr=rows, tt=t):
            if is_ev:
                return self.expval(params, target, rr, tt, draws, ordname)
            return self.eta(params, target, rr, tt, draws, ordname)

        if req == 0:
            total = base
        elif req in (1, 2):
            total = (req - 1) if base == -1 else base + req
            if total > 2:
                raise EvalError(
                    f"order-{req} derivative through {el.link_kind} is unsupported"
                )
        else:  # integral of the link element
            if base == 0:
                total = -1
            else:
                return integrate_to(lambda rr, tt: raw(_NUM_ORDER[base], rr, tt),
                                    rows, t, TIME_GL_POINTS)
        return raw(_NUM_ORDER[total])

    def eta(self, params, sub_idx, rows, t, draws, order="value"):
        """Complex predictor (or its time derivative/integral): (n, nq).

        Each time-varying element is evaluated once per call, for every
        column that uses it; nothing is kept between calls."""
        info = self.subs[sub_idx]
        nq = 1
        if draws:
            nq = len(next(iter(draws.values())))
        n = len(rows)
        acc = np.zeros((n, nq))
        if t is not None:
            t = np.asarray(t, dtype=float)
        table: dict[tuple[int, str], np.ndarray] = {}

        def factor(el, bi, forder):
            key = (id(el), forder)
            if key not in table:
                table[key] = self._factor_values(params, el, rows, t, draws, forder)
            return _column(table[key], bi)

        for col in info.columns:
            coef = 1.0 if col.param is None else params[col.param]
            s = col.static[rows]
            if col.re_names:
                r = np.ones(nq)
                for name in col.re_names:
                    r = r * draws[name]
                base = s[:, None] * r[None, :]
            else:
                base = s[:, None]
            tf = col.time_factors
            if tf and t is None:
                raise EvalError("time-dependent component evaluated without a time")
            if order == "value":
                v = base
                for el, bi in tf:
                    v = v * factor(el, bi, "value")
            elif order in ("d1", "d2"):
                if not tf:
                    continue
                v = base * _product_deriv(tf, factor, order)
            else:  # integral over (0, t]
                if not tf:
                    v = base * t[:, None]
                elif len(tf) == 1:
                    el, bi = tf[0]
                    v = base * factor(el, bi, "integral")
                else:
                    def prod_val(rr, tt):
                        out = None
                        for el, bi in tf:
                            fv = _column(self._factor_values(params, el, rr, tt, draws,
                                                             "value"), bi)
                            out = fv if out is None else out * fv
                        return out
                    v = base * integrate_to(prod_val, rows, t, TIME_GL_POINTS)
            acc = acc + coef * v
        return acc

    def expval(self, params, sub_idx, rows, t, draws, order="value"):
        """Expected response of a submodel and its time derivatives/integral."""
        fam = self.spec.submodels[sub_idx].family
        if families.FAMILIES[fam].link is None:
            raise EvalError(f"expected value undefined for family {fam!r}")
        if order == "integral":
            return integrate_to(
                lambda rr, tt: self.expval(params, sub_idx, rr, tt, draws, "value"),
                rows, t, TIME_GL_POINTS)
        ev = self.eta(params, sub_idx, rows, t, draws, "value")
        if order == "value":
            return families.mean_value(fam, ev)
        e1 = self.eta(params, sub_idx, rows, t, draws, "d1")
        if order == "d1":
            return families.mean_d1(fam, ev) * e1
        e2 = self.eta(params, sub_idx, rows, t, draws, "d2")
        return families.mean_d2(fam, ev) * e1**2 + families.mean_d1(fam, ev) * e2

    # ------------------------------------------------------------------
    # survival calculus
    # ------------------------------------------------------------------

    def _ap(self, params, sub_idx):
        return np.asarray([params[k] for k in self.subs[sub_idx].ap_idx])

    def hazard(self, params, sub_idx, rows, t, draws):
        sub = self.spec.submodels[sub_idx]
        if not sub.is_survival:
            raise EvalError(f"hazard undefined for family {sub.family!r}")
        ap = self._ap(params, sub_idx)
        ev = self.eta(params, sub_idx, rows, t, draws, "value")
        if families.FAMILIES[sub.family].log_hazard is None:  # rp: eta is log H
            d1 = self.eta(params, sub_idx, rows, t, draws, "d1")
            return d1 * np.exp(ev)
        off = families.log_hazard_offset(sub.family, t, ap)
        return np.exp(ev + off[:, None])

    def cumhazard(self, params, sub_idx, rows, t, draws):
        sub = self.spec.submodels[sub_idx]
        if not sub.is_survival:
            raise EvalError(f"cumulative hazard undefined for family {sub.family!r}")
        ap = self._ap(params, sub_idx)
        fam = families.FAMILIES[sub.family]
        if fam.log_hazard is None:  # rp: eta is log H
            ev = self.eta(params, sub_idx, rows, t, draws, "value")
            return np.exp(ev)
        if fam.cumhazard is not None and not self.subs[sub_idx].has_time:
            ev = self.eta(params, sub_idx, rows, t, draws, "value")
            lam0 = families.baseline_cumhazard_factor(sub.family, t, ap)
            return np.exp(ev) * lam0[:, None]
        return integrate_to(lambda rr, tt: self.hazard(params, sub_idx, rr, tt, draws),
                            rows, t, TIME_GL_POINTS)

    def survival(self, params, sub_idx, rows, t, draws):
        return np.exp(-self.cumhazard(params, sub_idx, rows, t, draws))

    # ------------------------------------------------------------------
    # log-likelihood
    # ------------------------------------------------------------------

    def loglik_matrix(self, params, sub_idx, draws, obs_sel=None):
        """Per-observation log-likelihood contributions, (n_obs, nq).

        obs_sel selects a subset of the submodel's observed rows (used by
        the chunked likelihood engine).
        """
        sub = self.spec.submodels[sub_idx]
        info = self.subs[sub_idx]
        rows = info.rv.observed_rows
        y = info.rv.values
        if obs_sel is not None:
            rows = rows[obs_sel]
            y = y[obs_sel]
        fam = families.FAMILIES[sub.family]
        if not fam.survival:
            tv = self.data.column(sub.timevar)[rows] if sub.timevar else None
            if fam.user:
                ctx = UserFamilyContext(self, params, sub_idx, rows, tv, draws, y)
                out = np.asarray(get_user_family(sub.userf)(ctx))
                nq = len(next(iter(draws.values()))) if draws else 1
                return np.broadcast_to(out, (len(rows), nq)).copy()
            ev = self.eta(params, sub_idx, rows, tv, draws, "value")
            out = families.scalar_loglik(sub.family, y, ev, self._ap(params, sub_idx))
            return np.where(np.isnan(out), -np.inf, out)
        # survival contribution: d * log h(t) - H(t)
        t, d = y[:, 0], y[:, 1]
        ap = self._ap(params, sub_idx)
        H = self.cumhazard(params, sub_idx, rows, t, draws)
        ll = -H
        ev_idx = d > 0
        if ev_idx.any():
            erows = rows[ev_idx]
            et = t[ev_idx]
            if fam.log_hazard is None:  # rp
                ev = self.eta(params, sub_idx, erows, et, draws, "value")
                d1 = self.eta(params, sub_idx, erows, et, draws, "d1")
                with np.errstate(divide="ignore", invalid="ignore"):
                    logh = np.where(d1 > 0, np.log(np.maximum(d1, 1e-300)) + ev, -np.inf)
            else:
                evv = self.eta(params, sub_idx, erows, et, draws, "value")
                off = families.log_hazard_offset(sub.family, et, ap)
                logh = evv + off[:, None]
            if sub.bhazard_var is not None:
                b = self.data.column(sub.bhazard_var)[erows]
                logh = np.log(b[:, None] + np.exp(logh))
            ll[ev_idx] = ll[ev_idx] + logh
        # an overflowed hazard can leave inf - inf = nan; such a point is
        # invalid, not favourable
        return np.where(np.isnan(ll), -np.inf, ll)
