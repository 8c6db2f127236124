"""Complex-predictor evaluation engine.

Expands each submodel's components into coefficient columns, builds the
spline/fp bases from the data, and evaluates eta(t) and its time
derivatives/integral at any (row, time, random-effect draw) combination,
including cross-submodel EV/XB links.  Also assembles the per-observation
log-likelihood matrices used by the estimation engine.

Every evaluation takes a quadrature.Frame, the rows and times to evaluate
at, and reads the submodel's Design on it for the order (value, d1, d2 or
integral), compiled from its columns on first use: the columns with
neither random effects nor a link as one matrix of static values times
time factors (or their derivative or integral), summed with the
coefficients in column order; the random-effect columns, the same narrow
values times the draws; and the link columns, whose link values depend on
the parameters and are evaluated on each call.  A design holds no value
that depends on the parameters.  A kept frame (one per chunk and
submodel of the likelihood engine, and its node blocks) keeps its
designs; a transient frame compiles them on each call and keeps nothing.
eta_gradient reads the same design: a fixed coefficient's derivative is
its design row, and a link target's coefficients keep a factored form
(EtaGradient).

Parameters come as a vector (p,), one point; random-effect draws as one
(nq,) array per random effect, and every result has nq columns (1 without
draws).
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


def node_width(draws):
    """Node columns of an evaluation: the length of the draws (nq), 1
    without them."""
    return len(next(iter(draws.values()))) if draws else 1


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


def _times(a, b):
    """a * b, where None stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def _widen(acc, draws):
    """A predictor sum (n, 1) or (n, nq) as (n, nq)."""
    if acc.shape[1] > 1 or not draws:
        return acc
    nq = node_width(draws)
    return acc if nq == 1 else np.repeat(acc, nq, axis=1)


@dataclass
class Column:
    factors: list[tuple[Element, int | None]]
    static: np.ndarray | None               # (n_rows,) time-constant product, None for 1
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


class Wide:
    """A design column with random effects or a link, evaluated per call.
    narrow, (n, 1) or None for 1, is its static values times its time
    factors other than links, or their derivative or integral at that
    order; re_names, param (None: coefficient 1) and the link elements are
    its Column's.  A link column at an order other than value keeps its
    time factors tf, whose product rule or integral is taken per call,
    and narrow then holds its static values alone.  (A plain class: a
    dataclass costs 0.5 ms of import.)"""
    __slots__ = ("narrow", "re_names", "param", "links", "tf")

    def __init__(self, narrow, re_names, param, links, tf=None):
        self.narrow, self.re_names, self.param = narrow, re_names, param
        self.links, self.tf = links, tf


class Design:
    """A submodel's predictor compiled on a frame for one order; it holds
    no value that depends on the parameters.

    X (k, n) holds the columns with neither random effects nor a link, in
    column order: their static values times their time factors, or the
    factors' derivative or integral.  coef (k,) gives each row's parameter
    index, unit marks the constrained rows (coefficient 1; None without
    any).  The first lead rows come before the first wide column; tail
    holds the rest in column order, each a row index of X or a Wide
    column.  free_X and free_params are the rows with a parameter."""

    def __init__(self, narrow, coef, lead, tail, n):
        self.X = np.empty((len(narrow), n))
        for row, v in zip(self.X, narrow):
            row[:] = 1.0 if v is None else v[:, 0]
        unit = np.asarray([k is None for k in coef], dtype=bool)
        self.coef = np.asarray([0 if k is None else k for k in coef], dtype=int)
        self.unit = unit if unit.any() else None
        self.lead, self.tail = lead, tail
        self.wide = [w for w in tail if isinstance(w, Wide)]
        self.free_X = self.X if self.unit is None else self.X[~unit]
        self.free_params = [k for k in coef if k is not None]

    def beta(self, params):
        """The coefficient of each row of X at a point."""
        b = np.asarray(params)[self.coef]
        if self.unit is not None:
            b[self.unit] = 1.0
        return b

    def lead_sum(self, beta):
        """The sum of the lead rows of X times their coefficients, added
        in row order, (n, 1)."""
        X = self.X
        if not self.lead:
            return np.zeros((X.shape[1], 1))
        acc = X[0] * beta[0]
        for j in range(1, self.lead):
            acc += X[j] * beta[j]
        return acc[:, None]

    @property
    def nbytes(self) -> int:
        arrays = [self.X, *(w.narrow for w in self.wide if w.narrow is not None)]
        return sum(a.nbytes for a in arrays) + (self.free_X is not self.X) * self.free_X.nbytes


class EtaGradient:
    """d eta / d theta on a frame: single[k], one parameter's derivative,
    (n, 1), (1, nq) or (n, nq); and blocks (F, X, ks), F (n, 1), (1, nq) or
    (n, nq) (None for 1) times each row X[j] (n,), the derivative in
    parameter ks[j]: a design's rows, or one narrow factor.  A parameter's
    derivative is the sum of its terms."""

    def __init__(self, single=None, blocks=None):
        self.single = {} if single is None else single
        self.blocks = [] if blocks is None else blocks

    def add(self, k, v):
        self.single[k] = self.single[k] + v if k in self.single else v

    def extend(self, other, factor):
        """Add other's derivatives, each times factor (None for 1).  A
        derivative (1, nq), the same on every row, times an (n, 1) factor
        stays factored as a block."""
        for k, g in other.single.items():
            if factor is not None and factor.shape[1] == 1 < g.shape[1] and len(g) == 1:
                self.blocks.append((g, factor.T, [k]))
            else:
                self.add(k, _times(factor, g))
        for F, X, ks in other.blocks:
            self.blocks.append((_times(factor, F), X, ks))

    def dense(self) -> dict[int, np.ndarray]:
        """Each parameter's derivative as one array."""
        out = dict(self.single)
        for F, X, ks in self.blocks:
            for k, x in zip(ks, X):
                v = _times(F, x[:, None])
                out[k] = out[k] + v if k in out else v
        return out


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
                    factors=[], static=None, re_names=[],
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
            static = None
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
                    static = _times(static, data.column(el.var))
                    labels.append(el.var)
                elif el.kind == "exposure_log":
                    static = _times(static, np.log(data.column(el.var)))
                    labels.append(f"exposure({el.var})")
                elif el.kind in ("rcs", "fp"):
                    static = _times(static, self._static_basis_col(el, bi))
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

    def _design(self, sub_idx, at: Frame, order) -> Design:
        """The submodel's design on a frame for one order, kept by a kept
        frame."""
        return at.keep(("design", sub_idx, order), lambda: self._compile(sub_idx, at, order))

    def _compile(self, sub_idx, at: Frame, order) -> Design:
        """Compile the submodel's columns on a frame for one order (Design).
        Each time factor is evaluated once per order, for every column that
        uses it; a derivative skips a column without time factors (0)."""
        rows, t = at.rows, at.t
        table = {}

        def factor(el, bi, forder):
            key = (id(el), forder)
            if key not in table:
                table[key] = self._time_values(el, t, forder)
            return _column(table[key], bi)
        narrow, coef, lead, tail = [], [], 0, []
        for col in self.subs[sub_idx].columns:
            tf = col.time_factors
            if tf and t is None:
                raise EvalError("time-dependent component evaluated without a time")
            s = None if col.static is None else col.static[rows][:, None]
            links = [el for el, _ in tf if el.kind == "link"]
            if links and order != "value":
                tail.append(Wide(s, col.re_names, col.param, links, tf))
                continue
            if order == "value":
                v = s
                for el, bi in tf:
                    if el.kind != "link":
                        v = _times(v, factor(el, bi, "value"))
            elif order in ("d1", "d2"):
                if not tf:
                    continue
                v = _times(s, _product_deriv(tf, factor, order))
            elif not tf:
                v = _times(s, t[:, None])
            elif len(tf) == 1:
                v = _times(s, factor(*tf[0], "integral"))
            else:
                def product(block):
                    out = None
                    for el, bi in tf:
                        out = _times(out, _column(self._time_values(el, block.t, "value"), bi))
                    return out
                # the nodes are needed once: a transient frame keeps none
                v = _times(s, integrate_to(product, Frame(rows, t), TIME_GL_POINTS, 1))
            if col.re_names or links:
                tail.append(Wide(v, col.re_names, col.param, links))
                continue
            narrow.append(v)
            coef.append(col.param)
            if tail:
                tail.append(len(narrow) - 1)
            else:
                lead += 1
        return Design(narrow, coef, lead, tail, len(rows))

    def _time_values(self, el, t, order):
        """Every column of a time-varying element other than a link at
        times t: (n, df) for a spline/fp basis, (n, 1) for the time
        variable."""
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

    def _link(self, params, el, at, draws, order, calls):
        """A link element's values on a frame, (n, nq), evaluated once per
        call: calls is the call's table."""
        key = (id(el), order)
        if key not in calls:
            calls[key] = self._link_eval(params, el, at, draws, order)
        return calls[key]

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
                                    at, TIME_GL_POINTS, node_width(draws))
        return raw(_NUM_ORDER[total])

    @staticmethod
    def _base(w, draws):
        """A wide column's narrow part times its random-effect draws."""
        if not w.re_names:
            return w.narrow
        r = draws[w.re_names[0]]
        for name in w.re_names[1:]:
            r = r * draws[name]
        return r[None, :] if w.narrow is None else w.narrow * r[None, :]

    def _wide_value(self, params, w, at, draws, order, calls):
        """A wide column's value on a frame without its coefficient, at the
        design's order.  A link column's derivative or integral evaluates
        its other time factors on each call."""
        base = self._base(w, draws)
        if w.tf is None:
            v = base
            for el in w.links:
                v = _times(v, self._link(params, el, at, draws, "value", calls))
            return v

        def factor(el, bi, forder, fr=at, fcalls=calls):
            if el.kind == "link":
                return self._link(params, el, fr, draws, forder, fcalls)
            return _column(self._time_values(el, fr.t, forder), bi)
        if order != "integral":
            return _times(base, _product_deriv(w.tf, factor, order))
        if len(w.tf) == 1:
            return _times(base, factor(*w.tf[0], "integral"))

        def product(block):
            out, block_calls = None, {}
            for el, bi in w.tf:
                out = _times(out, factor(el, bi, "value", block, block_calls))
            return out
        return _times(base, integrate_to(product, at, TIME_GL_POINTS, node_width(draws)))

    def eta(self, params, sub_idx, at: Frame, draws, order="value"):
        """Complex predictor (or its time derivative/integral) on a frame:
        (n, nq), from the submodel's design for the order.  Its columns
        are added in column order: the narrow ones before the first wide
        one as (n, 1), the rest to the widened sum."""
        d = self._design(sub_idx, at, order)
        beta, calls = d.beta(params), {}
        acc = d.lead_sum(beta)
        for item in d.tail:
            if isinstance(item, Wide):
                v = self._wide_value(params, item, at, draws, order, calls)
                acc = acc + (v if item.param is None else params[item.param] * v)
            else:
                acc = acc + beta[item] * d.X[item][:, None]
        return _widen(acc, draws)

    def eta_gradient(self, params, sub_idx, at: Frame, draws, second=False):
        """eta on a frame, with the bits of eta(), and d eta / d theta for
        each parameter of the predictor (EtaGradient): the fixed
        coefficients' derivatives are their design rows; a wide column's
        coefficient has the column's value; log_sd(Mk) the sum of coef x
        column value over the columns that use Mk, once per use, since
        d b_k / d log_sd_k = b_k under every covariance structure; and a
        parameter of an EV[]/XB[] link target, nested to any depth, the
        column's coefficient times its other factors times d
        eta_target / d theta, and times mean_d1(eta_target) for EV[]
        through a link other than the identity.  The target's
        coefficients keep their factored form, that wide factor times the
        target's design rows.  The target's eta and gradient come from one
        recursive call, its link value is mean_value of that eta (the bits
        of expval), and the other factors are multiplied out, never
        divided out of the column value, which can be 0.  The atanh_corr
        parameters and the other link kinds are not covered.

        With second, also the nonzero d2 eta / d theta d theta', by
        parameter pair (k, l), k <= l (_column_hessian)."""
        d = self._design(sub_idx, at, "value")
        calls: dict[tuple[int, str], np.ndarray] = {}
        # id(link element) -> (eta_target gradient, dmu/deta or None, and with
        # second the dense gradient, eta_target's second derivatives and
        # d2mu/deta2 or None)
        targets = {}
        for w in d.wide:
            for el in w.links:
                if id(el) in targets:
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
                # through an identity link EV[] has the derivatives of XB[]
                # (mu' = 1), and a derivative without random effects stays
                # (n, 1)
                ev = ev and families.FAMILIES[fam].link is not families.IDENTITY
                targets[id(el)] = (t_grad, families.mean_d1(fam, t_eta) if ev else None)
                if second:
                    targets[id(el)] += (t_grad.dense(), t_hess,
                                        families.mean_d2(fam, t_eta) if ev else None)
        beta = d.beta(params)
        acc = d.lead_sum(beta)
        grad, hess = EtaGradient(), {}
        if d.free_params:
            grad.blocks.append((None, d.free_X, d.free_params))
        for item in d.tail:
            if not isinstance(item, Wide):
                acc = acc + beta[item] * d.X[item][:, None]
                continue
            coef = None if item.param is None else params[item.param]
            base = self._base(item, draws)
            values = [calls[(id(el), "value")] for el in item.links]
            v = base
            for value in values:
                v = _times(v, value)
            cv = v if coef is None else coef * v
            acc = acc + cv
            if coef is not None:
                grad.add(item.param, v)
            for name in item.re_names:
                grad.add(self.layout.log_sd_of[name], cv)
            for j, el in enumerate(item.links):
                # d/d theta of link j: coef x the other factors x its own
                # derivative
                if coef is None:
                    other = base
                else:
                    other = np.reshape(coef, (1, 1)) if base is None else coef * base
                for m, value in enumerate(values):
                    if m != j:
                        other = _times(other, value)
                t_grad, dmu = targets[id(el)][:2]
                grad.extend(t_grad, _times(other, dmu))
            if second:
                self._column_hessian(item, coef, base, values, targets, hess)
        eta = _widen(acc, draws)
        return (eta, grad, hess) if second else (eta, grad)

    def _column_hessian(self, w, coef, base, values, targets, hess):
        """Add one wide column's d2 / d theta d theta' to hess, by the
        product rule over its factors that depend on the parameters: the
        coefficient (d/dcoef = 1), the random-effect draws with the narrow
        part (base: d/dlog_sd_k = d2/dlog_sd_k dlog_sd_m = base, as b_k =
        exp(log_sd_k) z_k) and each EV[]/XB[] link value mu(eta_t), whose
        derivatives are mu' d eta_t and mu'' d eta_t d eta_t' + mu' d2 eta_t
        (mu' = 1, mu'' = 0 for XB[] and an identity link).  Each factor's
        second derivatives times the others, and each pair of factors'
        first derivatives times the rest; a pair's first derivatives in one
        parameter count twice.  A column with only its coefficient adds
        nothing."""
        groups, fixed = [], 1.0  # (value, gradient, second derivatives); the rest
        if coef is not None:
            groups.append((coef, {w.param: 1.0}, {}))
        if w.re_names:
            ls = sorted(self.layout.log_sd_of[name] for name in w.re_names)
            groups.append((base, dict.fromkeys(ls, base),
                           {(a, b): base for n, a in enumerate(ls) for b in ls[n:]}))
        elif base is not None:
            fixed = base
        for el, value in zip(w.links, values):
            _, dmu, t_grad, t_hess, d2mu = targets[id(el)]
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
                    for l, w2 in groups[b][1].items():
                        add(k, l, (2.0 if k == l else 1.0) * r * u * w2)

    def expval(self, params, sub_idx, at: Frame, draws, order="value"):
        """Expected response of a submodel and its time derivatives/integral."""
        fam = self.spec.submodels[sub_idx].family
        if families.FAMILIES[fam].link is None:
            raise EvalError(f"expected value undefined for family {fam!r}")
        if order == "integral":
            return integrate_to(
                lambda fr: self.expval(params, sub_idx, fr, draws, "value"),
                at, TIME_GL_POINTS, node_width(draws))
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
                                at, TIME_GL_POINTS, node_width(draws))
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
        """A user family's contributions, (n, nq), from a context of the
        point and its draws."""
        fn = get_user_family(self.spec.submodels[sub_idx].userf)
        out = np.empty((len(at.rows), node_width(draws)))
        out[:] = fn(UserFamilyContext(self, params, sub_idx, at, draws))
        return out
