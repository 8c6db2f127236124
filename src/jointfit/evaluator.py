"""Complex-predictor evaluation engine.

Expands each submodel's components into coefficient columns, builds the
spline/fp bases from the data, and evaluates eta(t) and its time
derivatives/integral at any (row, time, random-effect draw) combination,
including cross-submodel EV/XB links.  Also assembles the per-observation
log-likelihood matrices used by the estimation engine.

Every evaluation takes a quadrature.Frame, the rows and times to evaluate
at.  A kept frame (one per chunk and submodel of the likelihood engine)
keeps basis columns and the time variable per element and order and,
except on a node block, each column's static values; link values depend
on the parameters and are never kept.  A transient frame keeps nothing.

Parameters come as a vector (p,), one point, or in column form (p, W):
column c holds the parameters of the point that node column c belongs to,
so that the likelihood engine can evaluate a batch of points side by side
on the node axis.  params[k] is then a scalar or a row that broadcasts like
a draw, and every result has W columns.
"""

from dataclasses import dataclass, field

import numpy as np

from . import families
from .basis import FpBasis, RcsBasis, rcs_knots
from .data import Dataset, ResponseView, response_view
from .formula import Element, ModelSpec, SpecError
from .quadrature import Frame, integrate_to
from .userfam import UserFamilyContext, get_user_family

_LINK_BASE = {"EV": 0, "dEV": 1, "d2EV": 2, "iEV": -1,
              "XB": 0, "dXB": 1, "d2XB": 2, "iXB": -1}
_ORDER_NUM = {"value": 0, "d1": 1, "d2": 2, "integral": -1}
_NUM_ORDER = {0: "value", 1: "d1", 2: "d2", -1: "integral"}
TIME_GL_POINTS = 30   # nodes of the cumulative-hazard and iEV time integrals


class EvalError(ValueError):
    pass


def node_width(params, draws):
    """Node columns of an evaluation: the width of a parameter row (1 for a
    vector) or of the draws (nq), whichever is wider."""
    width = params.shape[1] if params.ndim == 2 else 1
    return max(width, len(next(iter(draws.values())))) if draws else width


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
        self.log_sd_of: dict[str, int] = {}     # random effect -> its log_sd

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
            self.layout.log_sd_of.update(zip(names, self.layout.level_log_sd[level]))
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

    def _factor(self, params, el, at, draws, order, calls):
        """Every column of one time-varying element on a frame: (n, df) for
        a spline/fp basis, (n, 1) for the time variable, (n, nq) for a link.
        Kept by a kept frame, except link values, which go to the per-call
        table calls with every value of a transient frame."""
        table = calls if el.kind == "link" or at.kept is None else at.kept
        key = (id(el), order)
        if key not in table:
            table[key] = self._factor_values(params, el, at, draws, order)
        return table[key]

    def _factor_values(self, params, el, at, draws, order):
        if el.kind == "link":
            return self._link_eval(params, el, at, draws, order)
        t = at.t
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

    def _link_eval(self, params, el, at, draws, order):
        base = _LINK_BASE[el.link_kind]
        req = _ORDER_NUM[order]
        is_ev = el.link_kind.endswith("EV")
        target = el.target_index

        def raw(ordname, fr=at):
            if is_ev:
                return self.expval(params, target, fr, draws, ordname)
            return self.eta(params, target, fr, draws, ordname)

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
                return integrate_to(lambda fr: raw(_NUM_ORDER[base], fr),
                                    at, TIME_GL_POINTS, node_width(params, draws))
        return raw(_NUM_ORDER[total])

    def eta(self, params, sub_idx, at: Frame, draws, order="value"):
        """Complex predictor (or its time derivative/integral) on a frame:
        (n, nq).

        Each time-varying element is evaluated once per call, for every
        column that uses it; a kept frame keeps the values that do not
        depend on the parameters for later calls."""
        nq = node_width(params, draws)
        acc = np.zeros((len(at.rows), nq))
        for col, _, v in self._column_values(params, sub_idx, at, draws, nq, order, {}):
            coef = 1.0 if col.param is None else params[col.param]
            acc = acc + coef * v
        return acc

    def eta_gradient(self, params, sub_idx, at: Frame, draws, second=False):
        """eta on a frame, with the bits of eta(), and d eta / d theta for
        each parameter of the predictor, (n, 1) or (n, nq) by parameter
        index: a coefficient's column value; for log_sd(Mk) the sum of
        coef x column value over the columns that use Mk, once per use,
        since d b_k / d log_sd_k = b_k under every covariance structure;
        and for a parameter of an EV[]/XB[] link target, nested to any
        depth, the column's coefficient times its other factors times
        d eta_target / d theta, and times mean_d1(eta_target) for EV[].
        The target's eta and gradient come from one recursive call, its
        link value is mean_value of that eta (the bits of expval), and
        the other factors are multiplied out, never divided out of the
        column value, which can be 0.  The atanh_corr parameters and the
        other link kinds are not covered.

        With second, also the nonzero d2 eta / d theta d theta', by
        parameter pair (k, l), k <= l (_column_hessian)."""
        nq = node_width(params, draws)
        calls: dict[tuple[int, str], np.ndarray] = {}
        # id(link element) -> (eta_target gradient, dmu/deta or None, and with
        # second eta_target's second derivatives and d2mu/deta2 or None)
        targets = {}
        for col in self.subs[sub_idx].columns:
            for el, _ in col.time_factors:
                if el.kind != "link" or id(el) in targets:
                    continue
                if el.link_kind not in ("EV", "XB"):
                    raise EvalError(f"no closed-form gradient through {el.link_kind}[]")
                fam = self.spec.submodels[el.target_index].family
                if second:
                    t_eta, t_grad, t_hess = self.eta_gradient(params, el.target_index, at,
                                                              draws, second=True)
                else:
                    t_eta, t_grad = self.eta_gradient(params, el.target_index, at, draws)
                ev = el.link_kind == "EV"
                calls[(id(el), "value")] = families.mean_value(fam, t_eta) if ev else t_eta
                targets[id(el)] = t_grad, families.mean_d1(fam, t_eta) if ev else None
                if second:
                    # through an identity link EV[] has the derivatives of
                    # XB[], and a derivative without random effects stays
                    # (n, 1)
                    ev = ev and families.FAMILIES[fam].link is not families.IDENTITY
                    targets[id(el)] = (t_grad, families.mean_d1(fam, t_eta) if ev else None,
                                       t_hess, families.mean_d2(fam, t_eta) if ev else None)
        acc = np.zeros((len(at.rows), nq))
        out: dict[int, np.ndarray] = {}
        hess: dict[tuple[int, int], np.ndarray] = {}

        def add(k, v):
            out[k] = out[k] + v if k in out else v
        for col, base, v in self._column_values(params, sub_idx, at, draws, nq, "value", calls):
            coef = 1.0 if col.param is None else params[col.param]
            acc = acc + coef * v
            if col.param is not None:
                out[col.param] = v
            for name in col.re_names:
                add(self.layout.log_sd_of[name], coef * v)
            for j, (el, _) in enumerate(col.time_factors):
                if el.kind != "link":
                    continue
                # d/d theta of factor j: coef x the other factors x its own
                # derivative
                other = coef * base
                for m, (fel, fbi) in enumerate(col.time_factors):
                    if m != j:
                        other = other * _column(
                            self._factor(params, fel, at, draws, "value", calls), fbi)
                t_grad, dmu = targets[id(el)][:2]
                if dmu is not None:
                    other = other * dmu
                for k, g in t_grad.items():
                    add(k, other * g)
            if second:
                self._column_hessian(col, coef, base, params, at, draws, calls, targets, hess)
        return (acc, out, hess) if second else (acc, out)

    def _column_hessian(self, col, coef, base, params, at, draws, calls, targets, hess):
        """Add one column's d2 / d theta d theta' to hess, by the product
        rule over its factors that depend on the parameters: the
        coefficient (d/dcoef = 1), the random-effect draws with the static
        values (base: d/dlog_sd_k = d2/dlog_sd_k dlog_sd_m = base, as b_k =
        exp(log_sd_k) z_k) and each EV[]/XB[] link value mu(eta_t), whose
        derivatives are mu' d eta_t and mu'' d eta_t d eta_t' + mu' d2 eta_t
        (mu' = 1, mu'' = 0 for XB[] and an identity link).  Each factor's
        second derivatives times the others, and each pair of factors'
        first derivatives times the rest; a pair's first derivatives in one
        parameter count twice."""
        groups, fixed = [], 1.0  # (value, gradient, second derivatives); the rest
        if col.param is not None:
            groups.append((coef, {col.param: 1.0}, {}))
        if col.re_names:
            ls = sorted(self.layout.log_sd_of[name] for name in col.re_names)
            groups.append((base, dict.fromkeys(ls, base),
                           {(a, b): base for n, a in enumerate(ls) for b in ls[n:]}))
        else:
            fixed = base
        for el, bi in col.time_factors:
            value = _column(self._factor(params, el, at, draws, "value", calls), bi)
            if el.kind != "link":
                fixed = fixed * value
                continue
            t_grad, dmu, t_hess, d2mu = targets[id(el)]
            if dmu is None:
                groups.append((value, t_grad, t_hess))
                continue
            keys = sorted(t_grad)
            second = {(a, b): d2mu * t_grad[a] * t_grad[b]
                      for n, a in enumerate(keys) for b in keys[n:]}
            for key, h in t_hess.items():
                second[key] = second[key] + dmu * h
            groups.append((value, {k: dmu * g for k, g in t_grad.items()}, second))

        def rest(*skip):
            out = fixed
            for m, (value, _, _) in enumerate(groups):
                if m not in skip:
                    out = out * value
            return out

        def add(k, l, v):
            key = (k, l) if k <= l else (l, k)
            hess[key] = hess[key] + v if key in hess else v
        for a, (_, grad_a, second_a) in enumerate(groups):
            if second_a:
                r = rest(a)
                for (k, l), h in second_a.items():
                    add(k, l, r * h)
            for b in range(a + 1, len(groups)):
                r = rest(a, b)
                for k, u in grad_a.items():
                    for l, w in groups[b][1].items():
                        add(k, l, (2.0 if k == l else 1.0) * r * u * w)

    def _column_values(self, params, sub_idx, at: Frame, draws, nq, order, calls):
        """Each column of the predictor with its base (static x draws) and
        its value on the frame without the coefficient, or its time
        derivative/integral; a derivative of a time-constant column (0) is
        skipped.  Each time-varying element is evaluated once, for every
        column that uses it; calls is the table of this call's link and
        transient values, which the caller may have filled."""
        info = self.subs[sub_idx]
        rows, t = at.rows, at.t

        def factor(el, bi, forder):
            return _column(self._factor(params, el, at, draws, forder, calls), bi)

        def make_statics():  # not kept on a node block: one copy per node
            return [col.static[rows] for col in info.columns]
        statics = make_statics() if at.block else at.keep(("static", sub_idx), make_statics)
        for col, s in zip(info.columns, statics):
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
                    def prod_val(block):
                        out, block_calls = None, {}
                        for el, bi in tf:
                            fv = _column(self._factor(params, el, block, draws, "value",
                                                      block_calls), bi)
                            out = fv if out is None else out * fv
                        return out
                    v = base * integrate_to(prod_val, at, TIME_GL_POINTS, nq)
            yield col, base, v

    def expval(self, params, sub_idx, at: Frame, draws, order="value"):
        """Expected response of a submodel and its time derivatives/integral."""
        fam = self.spec.submodels[sub_idx].family
        if families.FAMILIES[fam].link is None:
            raise EvalError(f"expected value undefined for family {fam!r}")
        if order == "integral":
            return integrate_to(
                lambda fr: self.expval(params, sub_idx, fr, draws, "value"),
                at, TIME_GL_POINTS, node_width(params, draws))
        ev = self.eta(params, sub_idx, at, draws, "value")
        if order == "value":
            return families.mean_value(fam, ev)
        e1 = self.eta(params, sub_idx, at, draws, "d1")
        if order == "d1":
            return families.mean_d1(fam, ev) * e1
        e2 = self.eta(params, sub_idx, at, draws, "d2")
        return families.mean_d2(fam, ev) * e1**2 + families.mean_d1(fam, ev) * e2

    # ------------------------------------------------------------------
    # survival calculus
    # ------------------------------------------------------------------

    def _ap(self, params, sub_idx):
        return np.asarray([params[k] for k in self.subs[sub_idx].ap_idx])

    def hazard(self, params, sub_idx, at: Frame, draws):
        sub = self.spec.submodels[sub_idx]
        if not sub.is_survival:
            raise EvalError(f"hazard undefined for family {sub.family!r}")
        ap = self._ap(params, sub_idx)
        ev = self.eta(params, sub_idx, at, draws, "value")
        if families.FAMILIES[sub.family].log_hazard is None:  # rp: eta is log H
            d1 = self.eta(params, sub_idx, at, draws, "d1")
            return d1 * np.exp(ev)
        off = families.log_hazard_offset(sub.family, at.t[:, None], ap)
        return np.exp(ev + off)

    def closed_form_cumhazard(self, sub_idx) -> bool:
        """Whether H = exp(eta) Lambda0(t): the family has a closed-form
        Lambda0 and the predictor no time-varying column (a link column
        counts as one).  Else cumhazard integrates the hazard over
        TIME_GL_POINTS nodes (rp's eta is log H itself)."""
        fam = families.FAMILIES[self.spec.submodels[sub_idx].family]
        return fam.cumhazard is not None and not self.subs[sub_idx].has_time

    def cumhazard(self, params, sub_idx, at: Frame, draws, ev=None):
        """H(t) on a frame; ev, eta on the frame if the caller has it, is
        reused where H is a function of it (rp and closed form)."""
        sub = self.spec.submodels[sub_idx]
        if not sub.is_survival:
            raise EvalError(f"cumulative hazard undefined for family {sub.family!r}")
        rp = families.FAMILIES[sub.family].log_hazard is None
        if not (rp or self.closed_form_cumhazard(sub_idx)):
            return integrate_to(lambda fr: self.hazard(params, sub_idx, fr, draws),
                                at, TIME_GL_POINTS, node_width(params, draws))
        if ev is None:
            ev = self.eta(params, sub_idx, at, draws, "value")
        if rp:
            return np.exp(ev)
        lam0 = families.baseline_cumhazard_factor(sub.family, at.t[:, None],
                                                  self._ap(params, sub_idx))
        return np.exp(ev) * lam0

    def survival(self, params, sub_idx, at: Frame, draws):
        return np.exp(-self.cumhazard(params, sub_idx, at, draws))

    # ------------------------------------------------------------------
    # log-likelihood
    # ------------------------------------------------------------------

    def observed_frame(self, sub_idx, sel=slice(None), keep=False) -> Frame:
        """Frame of a submodel's observed rows (the selection sel of them),
        their times and their responses.  The time is the response time of
        a survival submodel, else the timevar (None without one)."""
        sub = self.spec.submodels[sub_idx]
        rv = self.subs[sub_idx].rv
        rows, y = rv.observed_rows[sel], rv.values[sel]
        if families.FAMILIES[sub.family].survival:
            t = y[:, 0]
        else:
            t = self.data.column(sub.timevar)[rows] if sub.timevar else None
        return Frame(rows, t, y, keep)

    def loglik_matrix(self, params, sub_idx, draws, at=None):
        """Per-observation log-likelihood contributions, (n_obs, nq), on a
        frame from observed_frame: the likelihood engine passes each chunk's
        kept frame; at=None evaluates every observed row on a transient one.
        """
        sub = self.spec.submodels[sub_idx]
        if at is None:
            at = self.observed_frame(sub_idx)
        rows, y = at.rows, at.y
        fam = families.FAMILIES[sub.family]
        if not fam.survival:
            if fam.user:
                return self._user_loglik(params, sub_idx, at, draws)
            ev = self.eta(params, sub_idx, at, draws, "value")
            out = families.scalar_loglik(sub.family, y, ev, self._ap(params, sub_idx))
            return np.where(np.isnan(out), -np.inf, out)
        # survival contribution d log h(t) - H(t), log h (and H, unless it
        # is integrated) from one eta on every row; a censored row's log h
        # is dropped
        ev = self.eta(params, sub_idx, at, draws, "value")
        if fam.log_hazard is None:  # rp
            d1 = self.eta(params, sub_idx, at, draws, "d1")
            with np.errstate(divide="ignore", invalid="ignore"):
                logh = np.where(d1 > 0, np.log(np.maximum(d1, 1e-300)) + ev, -np.inf)
        else:
            logh = ev + families.log_hazard_offset(sub.family, at.t[:, None],
                                                   self._ap(params, sub_idx))
        if sub.bhazard_var is not None:
            b = self.data.column(sub.bhazard_var)[rows]
            logh = np.log(b[:, None] + np.exp(logh))
        ll = np.where(y[:, 1:2] > 0, logh, 0.0) - self.cumhazard(params, sub_idx, at, draws, ev)
        # an overflowed hazard can leave inf - inf = nan; such a point is
        # invalid, not favourable
        return np.where(np.isnan(ll), -np.inf, ll)

    def _user_loglik(self, params, sub_idx, at, draws):
        """A user family's contributions, one point at a time: a context
        gives ancillaries as floats, so each run of equal parameter columns
        (one point of a batch) gets a context of its parameter vector and
        its draws."""
        fn = get_user_family(self.spec.submodels[sub_idx].userf)
        width = node_width(params, draws)
        cols = np.asarray(params, dtype=float)
        cols = cols if cols.ndim == 2 else cols[:, None]
        cuts = [0, *(np.flatnonzero(np.any(cols[:, 1:] != cols[:, :-1], axis=0)) + 1), width]
        out = np.empty((len(at.rows), width))
        for s, e in zip(cuts[:-1], cuts[1:]):
            point = {name: d[s:e] for name, d in draws.items()} if draws else draws
            ctx = UserFamilyContext(self, cols[:, s], sub_idx, at, point)
            out[:, s:e] = np.asarray(fn(ctx))
        return out
