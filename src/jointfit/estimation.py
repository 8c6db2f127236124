"""Marginal likelihood assembly and maximization.

The marginal log-likelihood integrates the nested random effects with
fixed standard-normal-space node sets that are rescaled by the current
Cholesky factor at every evaluation.  Work is partitioned into fixed
chunks of top-level clusters; chunks may be computed on a thread pool but
are always reduced in cluster order, so results are independent of the
worker count.

Each chunk keeps one quadrature.Frame per submodel, of its observed rows,
times and responses, in which the evaluator keeps every value that does
not depend on the parameters, so each is computed once per fit.

Within a chunk the submodels' per-row contributions on the full node grid
are summed per row, then reduced one level at a time, lowest first.  Each
level keeps one integer label array giving the chunk-local cluster of each
unit one level down (a row at the lowest level, a lower-level cluster
above it).  A single np.bincount over flattened (label, node) indices sums
each cluster's units, adding in unit order from 0 as a scatter-add would,
and a weighted log-sum-exp over the level's nodes integrates the cluster.
A model without levels has a one-node grid and no reduction step.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import families
from .data import Dataset
from .evaluator import Evaluator
from .formula import ModelSpec, format_spec
from .quadrature import CovarianceParam, NodeSet, level_nodes, transform_nodes

CHUNK_CLUSTERS = 64


class ConvergenceError(RuntimeError):
    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


@dataclass
class FitControls:
    max_iter: int = 200
    seed: int = 0
    threads: int = 1


@dataclass
class FitResult:
    estimates: np.ndarray
    labels: list[str]
    vcov: np.ndarray | None
    loglik: float
    iterations: int
    converged: bool
    spec_text: str
    intmethod: tuple[str, ...]
    ip: tuple[int, ...]
    seed: int
    bases: dict = field(default_factory=dict)

    def std_errors(self) -> np.ndarray:
        if self.vcov is None:
            return np.full(len(self.estimates), np.nan)
        d = np.diag(self.vcov).copy()
        d[d < 0] = np.nan
        return np.sqrt(d)


class LikelihoodEngine:
    """Evaluates the total marginal log-likelihood for a validated spec."""

    def __init__(self, evaluator: Evaluator, seed: int = 0, threads: int = 1):
        self.ev = evaluator
        self.spec = evaluator.spec
        self.data = evaluator.data
        self.threads = max(1, threads)
        self.projection_warned = False
        self.node_sets: list[NodeSet] = []
        for k, level in enumerate(self.spec.levels):
            r = len(self.spec.re_layout[level])
            self.node_sets.append(
                level_nodes(self.spec.intmethod[k], self.spec.ip[k], r, seed + k)
            )
        # the full cross-level grid, level 0 outermost: node index per level
        # and the product of the levels' weights
        self._level_counts = tuple(ns.nodes.shape[0] for ns in self.node_sets)
        grids = np.meshgrid(*[np.arange(c) for c in self._level_counts], indexing="ij")
        self._grid_idx = [g.ravel() for g in grids]
        self.nq = int(np.prod(self._level_counts))
        self.weights = np.ones(self.nq)
        for ns, idx in zip(self.node_sets, self._grid_idx):
            self.weights = self.weights * ns.weights[idx]
        self._build_chunks()

    # -- chunk partition (fixed, independent of thread count) -------------

    def _build_chunks(self):
        if self.spec.levels:
            top = self.data.level_index[self.spec.levels[0]]
            self.n_clusters = top.n_clusters
            self.chunks = [
                self._make_chunk(np.sort(np.concatenate(
                    top.cluster_rows[s:s + CHUNK_CLUSTERS])))
                for s in range(0, top.n_clusters, CHUNK_CLUSTERS)]
        else:
            n = self.n_clusters = self.data.n_rows
            self.chunks = [self._make_chunk(np.arange(s, min(s + 4096, n)))
                           for s in range(0, max(n, 1), 4096)]

    def _make_chunk(self, rows):
        """A chunk's rows, one kept frame per submodel of the chunk's
        observed rows, and one label array per level for the reduction."""
        pos = np.full(self.data.n_rows, -1)
        pos[rows] = np.arange(len(rows))
        # per submodel, the chunk-local positions of its observed rows in
        # the chunk and the kept frame of those rows
        subs = []
        for i, info in enumerate(self.ev.subs):
            local = pos[info.rv.observed_rows]
            sel = np.flatnonzero(local >= 0)
            subs.append((local[sel], self.ev.observed_frame(i, sel, keep=True)))
        # labels[k]: the chunk-local level-k cluster of each unit one level
        # down (a row at the lowest level, else a level-(k+1) cluster)
        labels = []
        unit_rows = np.arange(len(rows))  # a chunk row inside each unit
        for level in reversed(self.spec.levels):
            gids = self.data.level_index[level].row_cluster[rows]
            _, first, local = np.unique(gids, return_index=True, return_inverse=True)
            labels.insert(0, local[unit_rows])
            unit_rows = first
        return {"rows": rows, "subs": subs, "labels": labels}

    # -- draws -------------------------------------------------------------

    def covariance_params(self, params) -> dict[str, CovarianceParam]:
        out = {}
        for level in self.spec.levels:
            ls = np.asarray([params[i] for i in self.ev.layout.level_log_sd[level]])
            cr = np.asarray([params[i] for i in self.ev.layout.level_corr[level]])
            # one projection warning per engine, so per fit
            out[level] = CovarianceParam(self.spec.covariance, ls, cr, self.projection_warned)
        return out

    def draws(self, params) -> dict[str, np.ndarray]:
        """Random-effect draw columns on the full cross-level grid."""
        covs = self.covariance_params(params)
        out = {}
        for k, level in enumerate(self.spec.levels):
            names = self.spec.re_layout[level]
            if not names:
                continue
            b = transform_nodes(self.node_sets[k], covs[level])  # (q_k, d)
            self.projection_warned |= covs[level].warned
            for j, name in enumerate(names):
                out[name] = b[self._grid_idx[k], j]
        return out

    def zero_draws(self) -> dict[str, np.ndarray]:
        out = {}
        for level in self.spec.levels:
            for name in self.spec.re_layout[level]:
                out[name] = np.zeros(1)
        return out

    # -- likelihood --------------------------------------------------------

    def _chunk_loglik(self, chunk_id, params, draws) -> np.ndarray:
        """Per-top-cluster log-likelihood values for one chunk."""
        chunk = self.chunks[chunk_id]
        n = len(chunk["rows"])
        cur = np.zeros((n, self.nq))
        for i, (local, at) in enumerate(chunk["subs"]):
            if len(local):  # a submodel's chunk positions are unique
                cur[local] += self.ev.loglik_matrix(params, i, draws, at)

        # nested reduction, lowest level inward: sum each cluster's units,
        # then integrate the cluster over the level's nodes
        cur = cur.reshape((n,) + self._level_counts)
        for k in reversed(range(len(self.node_sets))):
            width = int(np.prod(cur.shape[1:]))
            idx = chunk["labels"][k][:, None] * width + np.arange(width)
            agg = np.bincount(idx.ravel(), weights=cur.ravel())
            agg = agg.reshape((-1,) + cur.shape[1:])
            w = self.node_sets[k].weights
            mx = np.max(agg, axis=-1, keepdims=True)
            mx_safe = np.where(np.isfinite(mx), mx, 0.0)
            with np.errstate(divide="ignore"):
                cur = np.log(np.sum(np.exp(agg - mx_safe) * w, axis=-1)) + mx_safe[..., 0]
        return cur  # (n_top_clusters_in_chunk,)

    def cluster_logliks(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        draws = self.draws(params)
        if self.threads == 1 or len(self.chunks) == 1:
            parts = [self._chunk_loglik(c, params, draws) for c in range(len(self.chunks))]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                parts = list(pool.map(
                    lambda c: self._chunk_loglik(c, params, draws),
                    range(len(self.chunks))))
        return np.concatenate(parts) if parts else np.zeros(0)

    def total_loglik(self, params) -> float:
        return float(np.sum(self.cluster_logliks(params)))


# ---------------------------------------------------------------------------
# starting values
# ---------------------------------------------------------------------------

def start_values(engine: LikelihoodEngine) -> np.ndarray:
    ev = engine.ev
    theta = np.zeros(ev.n_params())
    for i, sub in enumerate(engine.spec.submodels):
        fam = families.FAMILIES[sub.family]
        info = ev.subs[i]
        y = info.rv.values
        if fam.start is None or not len(y):
            continue
        cons_idx = info.columns[-1].param if sub.intercept else None  # _cons is last
        intercept, ancillary = fam.start(y)
        if cons_idx is not None:
            theta[cons_idx] = intercept
        for k, v in zip(info.ap_idx, ancillary):
            theta[k] = v
        if fam.survival and fam.log_hazard is None:  # rp: eta is log H
            _rp_start(ev, sub, info, theta, cons_idx, intercept)
    return theta


def _rp_start(ev, sub, info, theta, cons_idx, log_rate):
    """Initialize the log-time baseline of an rp model so that
    log H(t) ~ log(rate * t), keeping eta'(t) > 0 at the start."""
    t = info.rv.values[:, 0]
    target = log_rate + np.log(t)
    cols, idxs = [], []
    for col in info.columns:
        if (col.param is not None and len(col.factors) == 1
                and col.factors[0][0].kind in ("rcs", "fp")
                and col.factors[0][0].var == sub.timevar):
            el, bi = col.factors[0]
            cols.append(ev.basis_of[id(el)].eval(t, "value")[:, bi])
            idxs.append(col.param)
    if not cols:
        return
    X = np.column_stack(cols + [np.ones(len(t))])
    beta, *_ = np.linalg.lstsq(X, target, rcond=None)
    for k, idx in enumerate(idxs):
        theta[idx] = beta[k]
    if cons_idx is not None:
        theta[cons_idx] = beta[-1]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

_BIG = 1e10
GRAD_TOL = 1e-5    # gradient inf-norm for convergence
REL_TOL = 1e-8     # relative objective change for convergence
GRAD_STEP = 1e-6   # relative central-difference step of the gradient
HESS_STEP = 1e-4   # relative outer central-difference step of the Hessian


def _neg_loglik(engine, params):
    try:
        # overflow at a rejected line-search point is handled by the
        # finiteness check below, not worth a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ll = engine.total_loglik(params)
    except (FloatingPointError, ValueError):
        return _BIG
    if not np.isfinite(ll):
        return _BIG
    return -ll


def central_gradient(f, x, step_scale):
    g = np.empty(len(x))
    for i in range(len(x)):
        h = step_scale * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def central_hessian(f, x, step_scale):
    n = len(x)
    H = np.empty((n, n))
    for i in range(n):
        h = step_scale * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        gp = central_gradient(f, xp, step_scale * 0.01)
        gm = central_gradient(f, xm, step_scale * 0.01)
        H[i] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


def _bfgs(f, x0, max_iter: int):
    """BFGS ascent on -f with backtracking line search.

    Converged when the gradient inf-norm falls below GRAD_TOL and the
    relative objective change falls below REL_TOL.
    """
    x = np.asarray(x0, dtype=float)
    n = len(x)
    fx = f(x)
    g = central_gradient(f, x, GRAD_STEP)
    Hinv = np.eye(n)
    converged = False
    it = 0
    rel_change = np.inf
    best_x, best_f = x.copy(), fx
    while it < max_iter:
        gmax = np.max(np.abs(g))
        if gmax < GRAD_TOL and rel_change < REL_TOL:
            converged = True
            break
        p = -Hinv @ g
        slope = g @ p
        if slope >= 0:
            Hinv = np.eye(n)
            p = -g
            slope = g @ p
            if slope >= 0:
                converged = gmax < GRAD_TOL
                break
        alpha, ok = 1.0, False
        for _ in range(40):
            x_new = x + alpha * p
            f_new = f(x_new)
            if f_new <= fx + 1e-4 * alpha * slope:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            converged = gmax < GRAD_TOL
            break
        g_new = central_gradient(f, x_new, GRAD_STEP)
        s = x_new - x
        yv = g_new - g
        sy = s @ yv
        if sy > 1e-12:
            rho = 1.0 / sy
            I = np.eye(n)
            Hinv = (I - rho * np.outer(s, yv)) @ Hinv @ (I - rho * np.outer(yv, s)) \
                + rho * np.outer(s, s)
        rel_change = abs(f_new - fx) / max(1.0, abs(fx))
        x, fx, g = x_new, f_new, g_new
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        it += 1
    if fx > best_f:
        x, fx = best_x, best_f
    if fx >= _BIG:
        # the whole search stayed on the invalid-likelihood penalty plateau;
        # a zero gradient there is not convergence
        converged = False
    return x, fx, it, bool(converged)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def maximize(spec: ModelSpec, data: Dataset, controls: FitControls | None = None,
             evaluator: Evaluator | None = None) -> FitResult:
    """Fit a validated spec by maximum likelihood."""
    controls = controls or FitControls()
    ev = evaluator or Evaluator(spec, data)
    engine = LikelihoodEngine(ev, seed=controls.seed, threads=controls.threads)

    f = lambda th: _neg_loglik(engine, th)
    x0 = start_values(engine)
    # a model that cannot be evaluated at all raises here instead of
    # leaving the search on the _BIG penalty plateau
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        engine.total_loglik(x0)
    xhat, fhat, it, converged = _bfgs(f, x0, controls.max_iter)

    H = central_hessian(f, xhat, HESS_STEP)
    vcov = None
    try:
        vcov = np.linalg.inv(H)
        if not np.all(np.isfinite(vcov)) or np.any(np.diag(vcov) <= 0):
            vcov = None
    except np.linalg.LinAlgError:
        vcov = None

    fit = FitResult(
        estimates=xhat,
        labels=list(ev.layout.labels),
        vcov=vcov,
        loglik=-fhat,
        iterations=it,
        converged=converged,
        spec_text=format_spec(spec),
        intmethod=spec.intmethod,
        ip=spec.ip,
        seed=controls.seed,
        bases=_serialize_bases(ev),
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence in {it} iterations (best logL {-fhat:.6f})", fit=fit)
    return fit


def _serialize_bases(ev: Evaluator) -> dict:
    out = {}
    for (i, j, k), b in ev.bases.items():
        key = f"{i}:{j}:{k}"
        if hasattr(b, "knots"):
            out[key] = {
                "type": "rcs",
                "knots": list(map(float, b.knots)),
                "log_time": bool(b.log_time),
                "orthog_shift": None if b.orthog_shift is None else b.orthog_shift.tolist(),
                "orthog_mat": None if b.orthog_mat is None else b.orthog_mat.tolist(),
            }
        else:
            out[key] = {"type": "fp", "powers": list(b.powers)}
    return out


def deserialize_bases(blob: dict) -> dict:
    from .basis import FpBasis, RcsBasis

    out = {}
    for key, d in blob.items():
        i, j, k = (int(v) for v in key.split(":"))
        if d["type"] == "rcs":
            b = RcsBasis(np.asarray(d["knots"]), log_time=d["log_time"])
            if d["orthog_shift"] is not None:
                b.orthog_shift = np.asarray(d["orthog_shift"])
                b.orthog_mat = np.asarray(d["orthog_mat"])
        else:
            b = FpBasis(tuple(d["powers"]))
        out[(i, j, k)] = b
    return out


def fit_to_json(fit: FitResult) -> str:
    doc = {
        "estimates": fit.estimates.tolist(),
        "labels": fit.labels,
        "vcov": None if fit.vcov is None else fit.vcov.tolist(),
        "loglik": fit.loglik,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "spec": fit.spec_text,
        "intmethod": list(fit.intmethod),
        "ip": list(fit.ip),
        "seed": fit.seed,
        "bases": fit.bases,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def fit_from_json(text: str) -> FitResult:
    doc = json.loads(text)
    return FitResult(
        estimates=np.asarray(doc["estimates"]),
        labels=list(doc["labels"]),
        vcov=None if doc["vcov"] is None else np.asarray(doc["vcov"]),
        loglik=doc["loglik"],
        iterations=doc["iterations"],
        converged=doc["converged"],
        spec_text=doc["spec"],
        intmethod=tuple(doc["intmethod"]),
        ip=tuple(doc["ip"]),
        seed=doc["seed"],
        bases=doc["bases"],
    )


def summary_table(fit: FitResult) -> str:
    """Aligned coefficient table with z tests and 95% intervals."""
    se = fit.std_errors()
    est = fit.estimates
    z = np.where(se > 0, est / se, np.nan)
    p = 2.0 * norm.sf(np.abs(z))
    crit = norm.ppf(0.975)
    lo, hi = est - crit * se, est + crit * se
    width = max(len(l) for l in fit.labels) if fit.labels else 5
    lines = ["Mixed effects regression model",
             f"Log likelihood = {fit.loglik:.4f}", ""]
    head = f"{'':{width}} {'Estimate':>10} {'Std. Error':>10} {'z':>7} {'Pr(>|z|)':>8} {'[95% Conf.':>11} {'Interval]':>10}"
    lines.append(head)
    for i, lbl in enumerate(fit.labels):
        if np.isnan(se[i]):
            lines.append(f"{lbl:{width}} {est[i]:>10.6g} {'NA':>10} {'NA':>7} {'NA':>8} {'NA':>11} {'NA':>10}")
        else:
            lines.append(
                f"{lbl:{width}} {est[i]:>10.6g} {se[i]:>10.6g} {z[i]:>7.3f} "
                f"{p[i]:>8.4f} {lo[i]:>11.6g} {hi[i]:>10.6g}")
    has_re = any(lbl.startswith("log_sd(M") or lbl.startswith("atanh_corr") for lbl in fit.labels)
    if has_re:
        method_names = {
            "ghermite": "Non-adaptive Gauss-Hermite quadrature",
            "halton": "Monte-Carlo integration (Halton sequences)",
            "sobol": "Monte-Carlo integration (Sobol sequences)",
            "mc": "Monte-Carlo integration",
        }
        lines.append("")
        lines.append("Integration method: "
                     + ", ".join(method_names[m] for m in dict.fromkeys(fit.intmethod)))
        lines.append("Integration points: " + ", ".join(str(i) for i in dict.fromkeys(fit.ip)))
    return "\n".join(lines)
