"""Marginal likelihood assembly and maximization.

The marginal log-likelihood integrates the nested random effects with
fixed standard-normal-space node sets that are rescaled by the current
Cholesky factor at every evaluation.  Work is partitioned into chunks of
whole top-level clusters (single rows, for a model without levels),
evaluated in cluster order: as many clusters as keep a chunk's rows x nq
within PASS_DOUBLES, and at least one.  A cluster's value does not depend
on how the clusters are split.

Each chunk keeps one quadrature.Frame per submodel, of its observed rows,
times and responses, in which the evaluator keeps the submodel designs it
compiles there (evaluator.Design), so every value that does not depend on
the parameters is computed once per fit.

Within a chunk the submodels' per-row contributions on the full node grid
are summed per row, then reduced one level at a time, lowest first.  Each
level keeps one integer label array giving the chunk-local cluster of each
unit one level down (a row at the lowest level, a lower-level cluster
above it).  A single np.bincount over flattened (label, node) indices sums
each cluster's units, adding in unit order from 0 as a scatter-add would,
and a weighted log-sum-exp over the level's nodes integrates the cluster.
A model without levels has a one-node grid and no reduction step.  Every
evaluation is of one parameter point (p,).

The optimizer is BFGS, whose gradient is the engine's score: the
derivative of a cluster's log-likelihood is the posterior-weighted sum of
its rows' derivatives (Louis 1982).  The reduction of one point's row sums
gives every row a posterior weight per node.  Where the family provides
derivative kernels, every link reachable from the predictor is EV[] or
XB[], and the rows need no bhazard or correlation parameter, a
submodel's row derivatives are closed form, from one routine
(LikelihoodEngine._row_terms) for both the score and the observed
information: the derivatives of l in g = eta + off (Evaluator.eta_gradient
through the links' targets, read from the designs) and in the
ancillaries, where a cumulative hazard integrated over time nodes
contributes the node sums of its one-point evaluation's node blocks.  The
score takes the derivatives of a block of coefficients, a factor over the
nodes times design rows, by summing the factor over the nodes once.
Every other submodel's rows are differenced centrally in the parameters
they depend on only, so a
coefficient of one submodel re-evaluates that submodel alone.  A
one-point evaluation keeps its reduction, so the score at the point the
line search has just accepted does not evaluate it again.  Where the
score is not finite or cannot be evaluated, BFGS takes central
differences of the whole likelihood, which carry the _BIG penalty, and
counts them (engine.fallbacks).  BFGS starts its inverse Hessian
approximation from the BHHH matrix (G'G)^-1 of the per-cluster scores G
at the start values (LikelihoodEngine.cluster_scores, whose sum is the
score), and from I where the start gradient fell back to central
differences or G'G is not finite or not positive definite.

The standard errors invert a Hessian of -log L at the estimates.  Where
every submodel's row derivatives are closed form and the model has at
most one level (engine.exact_information), it is the engine's observed
information (LikelihoodEngine.information): each cluster's posterior mean
of the row second derivatives plus the posterior covariance of its node
scores, the exact Hessian of the likelihood on its fixed nodes, from one
pass over the chunks at the estimates.  Every other model keeps the
Hessian of symmetric second differences, whose p^2 + p + 1 points are f
at the estimates, one step either way on each axis and one step either
way on each pair of axes, each evaluated alone; it gives no standard
errors where its smallest eigenvalue is within its rounding error.
"""

import json
import logging
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import families
from .data import DataError, Dataset, response_view
from .evaluator import TIME_GL_POINTS, EtaGradient, Evaluator
from .formula import ModelSpec, format_spec
from .quadrature import CovarianceParam, NodeSet, integrate_to, level_nodes, transform_nodes

log = logging.getLogger(__name__)

# values of one chunk's likelihood pass, chunk rows x nq (256 KB).  On
# shared_re (ip = 35, 2 vCPUs), 2^16 made one chunk and eval_ms 8 % worse;
# 2^13 made 234-row chunks and the fit 8 % slower.
PASS_DOUBLES = 2**15


class ConvergenceError(RuntimeError):
    def __init__(self, message, fit=None):
        super().__init__(message)
        self.fit = fit


@dataclass
class FitControls:
    max_iter: int = 200
    seed: int = 0


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

    def __init__(self, evaluator: Evaluator, seed: int = 0):
        self.ev = evaluator
        self.spec = evaluator.spec
        self.data = evaluator.data
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
        self.deps = self._dependencies()
        self.analytic = [self._analytic(i) for i in range(len(self.deps))]
        # the standard errors invert the exact information, not the grid
        self.exact_information = all(self.analytic) and len(self.spec.levels) <= 1
        # total_loglik calls, score calls, and gradients that fell back to
        # central differences of the whole likelihood, so far
        self.calls = self.scores = self.fallbacks = 0
        log.debug("engine: %d chunks, at most %d rows, %d nodes; analytic scores: %s; "
                  "Hessian: %s", len(self.chunks),
                  max((len(c["rows"]) for c in self.chunks), default=0), self.nq,
                  ", ".join(str(i + 1) for i, a in enumerate(self.analytic) if a) or "none",
                  "exact information" if self.exact_information else "grid")

    # -- chunk partition (bounds a pass's memory; one frame per submodel) --

    def _build_chunks(self):
        """Whole top-level clusters per chunk, each row its own cluster in a
        model without levels: as many as keep the chunk's rows x nq within
        PASS_DOUBLES, and at least one."""
        levels = self.spec.levels
        cluster = (self.data.level_index[levels[0]].row_cluster if levels
                   else np.arange(self.data.n_rows))
        order = np.argsort(cluster, kind="stable")  # rows by cluster, ascending
        ends = np.cumsum(np.bincount(cluster))  # rows up to each cluster's end
        self.n_clusters, cap = len(ends), PASS_DOUBLES // self.nq
        self.chunks, s = [], 0
        while s < self.n_clusters:
            first = ends[s - 1] if s else 0
            s = max(s + 1, int(np.searchsorted(ends, first + cap, side="right")))
            self.chunks.append(self._make_chunk(np.sort(order[first:ends[s - 1]])))

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
        top = unit_rows  # ends as the chunk-local top-level cluster of each row
        for level in reversed(self.spec.levels):
            gids = self.data.level_index[level].row_cluster[rows]
            _, first, top = np.unique(gids, return_index=True, return_inverse=True)
            labels.insert(0, top[unit_rows])
            unit_rows = first
        # each level's bincount index at the width of one point
        index = [(lab[:, None] * width + np.arange(width)).ravel()
                 for lab, width in zip(labels, np.cumprod(self._level_counts, dtype=int))]
        return {"rows": rows, "subs": subs, "labels": labels, "index": index, "top": top}

    def _dependencies(self):
        """Per submodel, the sorted indices of the parameters its rows
        depend on: its ancillaries and the parameters of its predictor;
        every parameter for a user family, whose context can evaluate any
        submodel."""
        out = []
        for i, sub in enumerate(self.spec.submodels):
            if families.FAMILIES[sub.family].user:
                out.append(np.arange(self.ev.n_params()))
            else:
                reach = self._predictor_params(i) | set(self.ev.subs[i].ap_idx)
                out.append(np.asarray(sorted(reach), dtype=int))
        return out

    def _analytic(self, i) -> bool:
        """Whether submodel i's row derivatives are closed form (_row_terms):
        its family has derivative kernels, every link element of its
        predictor and of its link targets' predictors, at any depth, is a
        value link (EV[] or XB[]), and it has no bhazard and no atanh_corr
        parameter in its dependency set."""
        sub = self.spec.submodels[i]
        fam = families.FAMILIES[sub.family]
        kernels = fam.log_hazard_d if fam.survival else fam.loglik_d
        corr = {k for ks in self.ev.layout.level_corr.values() for k in ks}
        return (kernels is not None and sub.bhazard_var is None
                and not corr.intersection(self.deps[i]) and self._value_links(i))

    def _value_links(self, i) -> bool:
        """Whether every link element reachable from submodel i's predictor
        is EV[] or XB[]."""
        return all(el.link_kind in ("EV", "XB") and self._value_links(el.target_index)
                   for col in self.ev.subs[i].columns for el, _ in col.factors
                   if el.kind == "link")

    def _predictor_params(self, i) -> set[int]:
        """The parameters of submodel i's predictor: its coefficients, the
        log_sd of each random effect it uses and the correlation parameters
        of that effect's level (b = diag(exp(log_sd)) chol(C) z, so b_k
        depends on its own log_sd and the correlations only), and those of
        its link targets' predictors (a target's mean is a function of its
        predictor, so its ancillaries do not reach the link)."""
        layout, out = self.ev.layout, set()
        for col in self.ev.subs[i].columns:
            if col.param is not None:
                out.add(col.param)
            for level, names in self.spec.re_layout.items():
                mine = [name for name in col.re_names if name in names]
                if mine:
                    out.update([layout.log_sd_of[name] for name in mine]
                               + layout.level_corr[level])
            for el, _ in col.factors:
                if el.kind == "link":
                    out |= self._predictor_params(el.target_index)
        return out

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
        """Random-effect draws of one point (p,) on the full cross-level
        grid, (nq,) per random effect."""
        out = {}
        covs = self.covariance_params(params)
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
        """Per-top-cluster log-likelihood values for one chunk at one point
        (p,).  The reduction is kept, by reference, with the point's bytes,
        for a score at the same point."""
        chunk = self.chunks[chunk_id]
        levels = []
        cur = self._reduce(chunk, self._row_sums(chunk, params, draws), levels)
        chunk["kept"] = (params.tobytes(), levels)
        return cur

    def _row_sums(self, chunk, params, draws) -> np.ndarray:
        """The submodels' contributions summed per chunk row, (n, nq)."""
        cur = np.zeros((len(chunk["rows"]), self.nq))
        for i, (local, at) in enumerate(chunk["subs"]):
            if len(local):  # a submodel's chunk positions are unique
                cur[local] += self.ev.loglik_matrix(params, i, draws, at)
        return cur

    def _reduce(self, chunk, cur, levels) -> np.ndarray:
        """Per-top-cluster log-likelihoods (n_top_clusters_in_chunk,) from a
        chunk's row sums; levels (a list) receives each level's cluster
        sums at every node and cluster log-likelihoods, top level first."""
        # nested reduction, lowest level inward: sum each cluster's units,
        # then integrate the cluster over the level's nodes
        cur = cur.reshape((len(cur),) + self._level_counts)
        for k in reversed(range(len(self.node_sets))):
            agg = np.bincount(chunk["index"][k], weights=cur.ravel())
            agg = agg.reshape((-1,) + cur.shape[1:])
            w = self.node_sets[k].weights
            mx = np.max(agg, axis=-1, keepdims=True)
            mx_safe = np.where(np.isfinite(mx), mx, 0.0)
            with np.errstate(divide="ignore"):
                cur = np.log(np.sum(np.exp(agg - mx_safe) * w, axis=-1)) + mx_safe[..., 0]
            levels.insert(0, (agg, cur))
        return cur

    def _node_weights(self, chunk, levels):
        """The posterior weights at each full-grid node of one point's
        reduction, as (W, unit): row r's weights are W[unit[r]].  W holds
        one row per lowest-level cluster: each level's node weights
        exp(agg - log L) * w, normalized per cluster, chained down from the
        top level (one weight 1 per row, each its own top-level cluster,
        without levels)."""
        if not levels:
            return np.ones((len(chunk["rows"]), 1)), chunk["top"]
        for k, (agg, ll) in enumerate(levels):
            post = np.exp(agg - ll[..., None]) * self.node_sets[k].weights
            W = post if k == 0 else post * W[chunk["labels"][k - 1]][..., None]
        return W.reshape(-1, self.nq), chunk["labels"][-1]

    def cluster_logliks(self, params) -> np.ndarray:
        """Per-top-cluster log-likelihoods of one point (p,), (n_clusters,),
        chunk by chunk."""
        x = np.asarray(params, dtype=float)
        draws = self.draws(x)
        parts = [self._chunk_loglik(c, x, draws) for c in range(len(self.chunks))]
        return np.concatenate(parts) if parts else np.zeros(0)

    def total_loglik(self, params) -> float:
        """The marginal log-likelihood of one point (p,)."""
        self.calls += 1
        return float(np.sum(self.cluster_logliks(params)))

    def score(self, x) -> np.ndarray:
        """The gradient of log L at one point x (p,): cluster_scores summed
        over all clusters at once, so the result does not depend on the
        chunk partition.  NaN where it is not finite, as where a cluster's
        log L is not."""
        g = np.sum(self.cluster_scores(x), axis=0)
        return np.where(np.isfinite(g), g, np.nan)

    def cluster_scores(self, x) -> np.ndarray:
        """The gradient of each top-level cluster's log L (a row's, without
        levels) at one point x (p,), (n_clusters, p) in cluster order: the
        posterior-weighted sum of its rows' derivatives (Louis 1982).

        The row weights come from the reduction at x, the one kept by the
        last one-point evaluation if it was at x.  The rows of a submodel in
        self.analytic take their derivatives in closed form (_row_terms).
        Every other submodel's rows are differenced centrally, with the
        steps of central_gradient, in the parameters it depends on only;
        each side point is evaluated with its own draws, one at a time on
        each chunk, and contracted with the weights over the nodes before
        the two sides are differenced.  Nodes of weight 0 contribute 0.  The
        row scores are summed per top-level cluster.  All NaN where a node
        weight is not finite, as where a cluster's log L is not."""
        x = np.asarray(x, dtype=float)
        self.scores += 1
        xdraws = self.draws(x)
        weights = self._weights(x, xdraws)
        n = len(x)
        if not all(np.all(np.isfinite(W)) for W, _ in weights):
            return np.full((self.n_clusters, n), np.nan)
        if not all(self.analytic):
            points, h = _gradient_points(x, GRAD_STEP)
        S = [np.zeros((len(chunk["rows"]), n)) for chunk in self.chunks]
        for i, deps in enumerate(self.deps):
            if self.analytic[i]:
                for chunk, (W, unit), rows in zip(self.chunks, weights, S):
                    local, at = chunk["subs"][i]
                    if len(local):
                        rows[np.ix_(local, deps)] += self._row_terms(
                            i, x, xdraws, at, W[unit[local]], deps, second=False)
                continue
            sides = [(p, self.draws(p)) for p in points[(2 * deps[:, None] + np.arange(2)).ravel()]]
            for chunk, (W, unit), rows in zip(self.chunks, weights, S):
                local, at = chunk["subs"][i]
                if not len(local):
                    continue
                Wl = W[unit[local]]
                # a node of weight 0 may be -inf on either side
                zero = None if np.all(Wl) else Wl == 0
                side = np.empty((len(local), len(sides)))
                for b, (p, draws) in enumerate(sides):
                    ll = self.ev.loglik_matrix(p, i, draws, at)
                    if zero is not None:
                        ll = np.where(zero, 0.0, ll)
                    side[:, b] = np.sum(ll * Wl, axis=-1)
                rows[np.ix_(local, deps)] += (side[:, 0::2] - side[:, 1::2]) / (2.0 * h[deps])
        clusters = [np.bincount((chunk["top"][:, None] * n + np.arange(n)).ravel(),
                                weights=rows.ravel()).reshape(-1, n)
                    for chunk, rows in zip(self.chunks, S)]
        return np.concatenate(clusters) if clusters else np.zeros((0, n))

    def _weights(self, x, xdraws):
        """Each chunk's _node_weights at one point x, from the reduction kept
        by the last one-point evaluation if it was at x."""
        key, weights = x.tobytes(), []
        for chunk in self.chunks:
            kept_key, levels = chunk.get("kept", (None, None))
            if kept_key != key:
                levels = []
                self._reduce(chunk, self._row_sums(chunk, x, xdraws), levels)
            weights.append(self._node_weights(chunk, levels))
        return weights

    def information(self, x) -> np.ndarray:
        """The observed information -d2 log L / d theta d theta' at one
        point x (p,), for a model whose submodels are all in self.analytic
        and which has at most one level (self.exact_information); a
        ValueError names the reason for any other model.

        With fixed nodes a top-level cluster's likelihood is exactly
        L_i = sum_q v_q exp(l_iq), so d2 log L_i = sum_q w_iq d2 l_iq +
        sum_q w_iq (s_iq - s_i)(s_iq - s_i)', the posterior mean of the
        second derivatives plus the posterior covariance of the node scores
        s_iq = dl_iq / d theta, with the posterior weights w_iq of the
        reduction at x and s_i = sum_q w_iq s_iq, the score (Louis 1982):
        the exact Hessian of the discretized likelihood.  Each submodel's
        rows give their node scores and sum_q w d2 l (_row_terms); both are
        summed per top-level cluster and node, the cluster's information is
        formed a parameter's row at a time on (clusters, nq) arrays, and
        the clusters' matrices are summed at once, so the result does not
        depend on the chunk partition.  Without levels a cluster is a row
        with one node of weight 1, where s_iq = s_i and the covariance is
        0.  A node of weight 0 contributes 0.  Not finite where a cluster's
        log L or a derivative is not; a node score that is not finite makes
        its parameter's row and column NaN."""
        if not self.exact_information:
            rest = ", ".join(str(i + 1) for i, a in enumerate(self.analytic) if not a)
            reasons = [f"no closed-form row derivatives in submodel {rest}"] if rest else []
            if len(self.spec.levels) > 1:
                reasons.append(f"{len(self.spec.levels)} levels, of at most 1")
            raise ValueError("no exact information: " + "; ".join(reasons))
        x = np.asarray(x, dtype=float)
        xdraws, n, nq, parts = self.draws(x), len(x), self.nq, []
        # one level's lowest clusters are its top ones: w is (clusters, nq)
        for chunk, (w, _) in zip(self.chunks, self._weights(x, xdraws)):
            top, n_top = chunk["top"], len(w)
            D2, S = np.zeros((n, n, n_top)), np.zeros((n, n_top, nq))
            for i, deps in enumerate(self.deps):
                local, at = chunk["subs"][i]
                if not len(local):
                    continue
                lab, m = top[local], len(deps)
                rows = self._row_terms(i, x, xdraws, at, w[lab], deps, second=True)
                idx = (lab[:, None] * nq + np.arange(nq)).ravel()
                for a, k in enumerate(deps):
                    S[k] += np.bincount(idx, weights=rows[:, a * nq:(a + 1) * nq].ravel(),
                                        minlength=n_top * nq).reshape(n_top, nq)
                for c, (a, b) in enumerate(_pairs(m), start=m * nq):
                    D2[deps[a], deps[b]] += np.bincount(lab, weights=rows[:, c], minlength=n_top)
            s = np.sum(w * S, axis=-1)
            with np.errstate(invalid="ignore"):  # a score not finite gives NaN
                dev = np.where(w > 0, S - s[..., None], 0.0)
            wdev = w * dev
            J = np.empty((n_top, n, n))
            for a in range(n):
                J[:, a, a:] = J[:, a:, a] = -(D2[a, a:] + np.sum(wdev[a] * dev[a:], axis=-1)).T
            parts.append(J)
        return np.sum(np.concatenate(parts), axis=0) if parts else np.zeros((n, n))

    def _row_terms(self, i, x, draws, at, Wl, deps, second) -> np.ndarray:
        """Submodel i's closed-form row derivatives at x on a chunk's kept
        frame, from the rows' node weights Wl: the row scores of
        _score_rows, or with second the node scores and weighted second
        derivatives of _louis_rows.

        A row's l depends on g = eta + off and on its ancillaries.  A
        survival row has l = d g(t) - H(t), off = log h - eta.  Where H =
        exp(eta) Lambda0(t), dl/dg = d - H and off's ancillaries enter
        through dl/dap.  Else H is the sum over the Gauss-Legendre nodes u_j
        of w_j exp(g(u_j)), so l's derivatives are the event terms of d g(t)
        less the node sums of those of h(u_j), dl/dg = d2l/dg2 = h, with the
        ancillaries folded into dg and d2g as d off/dap and d2 off/dap2:
        the exact derivatives of the discretized H, on the node blocks of
        the one-point H, one eta_gradient per block."""
        fam = families.FAMILIES[self.spec.submodels[i].family]
        ap, ap_idx = self.ev._ap(x, i), self.ev.subs[i].ap_idx

        def by_pair(values):
            return {(ap_idx[a], ap_idx[b]): v for (a, b), v in zip(_pairs(len(ap_idx)), values)}

        def derivatives(frame):
            # eta, d eta (an EtaGradient) and, with second, d2 eta ({}
            # without)
            if second:
                return self.ev.eta_gradient(x, i, frame, draws, second=True)
            return (*self.ev.eta_gradient(x, i, frame, draws), {})

        def pack(k, dg, d2g, dl, dap, dll=None, dla=(), daa=()):
            # the terms of k node blocks of the frame's rows (1: the rows
            # themselves); dl/dap and d2l/dg dap by ancillary, d2l/dap dap'
            # by ancillary pair, d2l/dg2 None for 0
            dap = dict(zip(ap_idx, dap))
            if not second:
                return _score_rows(Wl, zero, dg, dl, dap, deps)
            return _louis_rows(Wl if k == 1 else np.tile(Wl, (k, 1)), dg.dense(), d2g, dl, dap,
                               dll, dict(zip(ap_idx, dla)), by_pair(daa), deps)
        zero = None if second or np.all(Wl) else Wl == 0
        eta, dg, d2g = derivatives(at)
        if not fam.survival:
            y = at.y[:, None]
            return pack(1, dg, d2g, *fam.loglik_d(y, eta, ap),
                        *(fam.loglik_d2(y, eta, ap) if second else ()))
        t, d = at.t[:, None], at.y[:, 1:2]
        if self.ev.closed_form_cumhazard(i):
            e = np.exp(eta)
            H = e * fam.cumhazard(t, ap)
            dc = [e * v for v in fam.cumhazard_d(t, ap)]
            dap = [d * o - v for o, v in zip(fam.log_hazard_d(t, ap), dc)]
            if not second:
                return pack(1, dg, d2g, d - H, dap)
            daa = [d * o - e * c for o, c in zip(fam.log_hazard_d2(t, ap), fam.cumhazard_d2(t, ap))]
            return pack(1, dg, d2g, d - H, dap, -H, [-v for v in dc], daa)

        def fold(u, dg, d2g):
            dg = EtaGradient({**dg.single, **dict(zip(ap_idx, fam.log_hazard_d(u, ap)))},
                             dg.blocks)
            return dg, {**d2g, **by_pair(fam.log_hazard_d2(u, ap))} if second else d2g

        def node_terms(block):
            b_eta, b_dg, b_d2g = derivatives(block)
            u = block.t[:, None]
            h = np.exp(b_eta + fam.log_hazard(u, ap))
            return pack(len(u) // len(Wl), *fold(u, b_dg, b_d2g), h, (), h)
        events = pack(1, *fold(t, dg, d2g), d, ())
        return events - integrate_to(node_terms, at, TIME_GL_POINTS, Wl.shape[1])


def _pairs(n):
    """The index pairs (a, b), a <= b < n, in row-major order."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def _score_rows(Wl, zero, d_eta, dl, dap, deps) -> np.ndarray:
    """Row scores (rows, len(deps)) in the order of deps, from the node
    weights Wl of a frame's rows, which the terms' rows repeat node-major
    for a stack of node blocks: sum_q Wl dl d eta/d theta for a parameter
    of d_eta (an EtaGradient), with a derivative without random effects
    ((rows, 1)) taken out of the node sum, and sum_q Wl dl/dap for an
    ancillary of dap.  A block of coefficients F X contracts its factor F
    over the nodes once and takes all its rows X in one product.  Each node
    sum is one einsum per row, so a row's score does not depend on the
    rows beside it; the scores are formed a parameter at a time, as the
    rows of their transpose.  A node of weight 0 (zero: Wl == 0, None
    where there is none) contributes 0, though a kernel may be inf or nan
    there."""
    col = {k: j for j, k in enumerate(deps)}

    def weighted(v):
        u = v.reshape(-1, len(Wl), v.shape[-1])
        if zero is not None:
            u = np.where(zero, 0.0, u)
        return (u * Wl).reshape(len(v), -1)
    out = np.zeros((len(deps), len(dl)))
    for k, v in dap.items():
        out[col[k]] = np.einsum("ij->i", weighted(v))
    G = weighted(dl)
    G_rows = np.einsum("ij->i", G)

    def contract(v):
        # sum_q G v for v (n, 1), (1, nq) or (n, nq)
        if v.shape[1] == 1:
            return G_rows * v[:, 0]
        return np.einsum("ij,j->i", G, v[0]) if len(v) == 1 else np.einsum("ij,ij->i", G, v)
    for k, v in d_eta.single.items():
        out[col[k]] += contract(v)
    for F, X, ks in d_eta.blocks:
        # a block's parameters are one submodel's coefficients, adjacent
        # in deps
        a = col[ks[0]]
        rows = slice(a, a + len(ks)) if col[ks[-1]] == a + len(ks) - 1 else [col[k] for k in ks]
        out[rows] += X * (G_rows if F is None else contract(F))
    return out.T


def _louis_rows(Wl, d_eta, d2_eta, dl, dap, dll, dla, daa, deps) -> np.ndarray:
    """Rows for the observed information (rows, len(deps) * nq + pairs):
    first each parameter of deps in turn, its node scores dl d eta/d theta
    (or dl/dap for an ancillary of dap) at every node, then for each pair
    of deps positions a <= b in row-major order sum_q Wl d2 l/d theta_a
    d theta_b, from d eta and d2 eta, d2l/deta2 (dll, None for 0), and
    d2l/deta dap (dla, by ancillary) and d2l/dap dap' (daa, by ancillary
    pair).  A node of weight 0 has node scores 0 and contributes 0, though
    a kernel may be inf or nan there."""
    zero = None if np.all(Wl) else Wl == 0
    rows, nq, m = Wl.shape[0], Wl.shape[1], len(deps)
    out = np.zeros((rows, m * nq + m * (m + 1) // 2))
    for a, k in enumerate(deps):
        node_scores = out[:, a * nq:(a + 1) * nq]
        if k in d_eta:
            np.multiply(dl, d_eta[k], out=node_scores)
        elif k in dap:
            node_scores[:] = dap[k]
        if zero is not None:
            node_scores[zero] = 0.0
    sums = {}  # id(kernel) -> sum_q Wl x kernel

    def node_sum(kernel, *factors):
        # sum_q Wl x kernel x the factors, each (n, 1) or (n, nq): an (n, 1)
        # factor is taken out of the sum
        wide = [f for f in factors if f.shape[1] > 1]
        if wide or id(kernel) not in sums:
            v = Wl * kernel
            if zero is not None:
                v[zero] = 0.0
            for f in wide:
                v *= f
            s = np.sum(v, axis=-1)
            if not wide:
                sums[id(kernel)] = s
        else:
            s = sums[id(kernel)]
        for f in factors:
            if f.shape[1] == 1:
                s = s * f[:, 0]
        return s
    c = m * nq
    for a, k in enumerate(deps):
        for l in deps[a:]:
            gk, gl = d_eta.get(k), d_eta.get(l)
            if gk is not None and gl is not None:
                if (k, l) in d2_eta:
                    out[:, c] = node_sum(dl, d2_eta[k, l])
                if dll is not None:
                    out[:, c] += node_sum(dll, gk, gl)
            elif gk is not None and l in dla:
                out[:, c] = node_sum(dla[l], gk)
            elif gl is not None and k in dla:
                out[:, c] = node_sum(dla[k], gl)
            elif (k, l) in daa:
                out[:, c] = node_sum(daa[k, l])
            c += 1
    return out


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
HESS_STEP = 1e-4   # relative step of the Hessian's second differences, O(h^2):
                   # 3e-4 gives SEs within 4e-6 relative of 1e-4


def _neg_loglik(engine, params):
    """-log L of one point (p,); _BIG where log L is not finite or the
    point cannot be evaluated."""
    try:
        # overflow at a rejected line-search point is handled by the
        # finiteness check below, not worth a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ll = engine.total_loglik(params)
    except (FloatingPointError, ValueError):
        return _BIG
    return -ll if np.isfinite(ll) else _BIG


def _gradient_points(x, step_scale):
    """The 2p central-difference points around x, x + h_i e_i then
    x - h_i e_i for each i, and the steps h."""
    h = np.asarray([step_scale * max(1.0, abs(v)) for v in x])
    points = np.repeat(x[None, :], 2 * len(x), axis=0)
    for i in range(len(x)):
        points[2 * i, i] += h[i]
        points[2 * i + 1, i] -= h[i]
    return points, h


def central_gradient(f, x, step_scale):
    """Central-difference gradient of f, one call of f per point."""
    points, h = _gradient_points(x, step_scale)
    values = np.asarray([f(p) for p in points])
    return (values[0::2] - values[1::2]) / (2.0 * h)


def central_hessian(f, x, step_scale):
    """Symmetric second differences of f (Abramowitz & Stegun 25.3.27),
    O(h^2) with one step h_i = step_scale * max(1, |x_i|) per axis, from f
    at x, x +- h_i e_i and x +- (h_i e_i + h_j e_j) for i < j, one call of
    f per point, x first."""
    n = len(x)
    axes, h = _gradient_points(x, step_scale)
    i, j = np.triu_indices(n, 1)
    k = 2 * np.arange(len(i))
    pairs = np.repeat(x[None, :], 2 * len(k), axis=0)
    pairs[k, i] += h[i]
    pairs[k, j] += h[j]
    pairs[k + 1, i] -= h[i]
    pairs[k + 1, j] -= h[j]
    values = np.asarray([f(p) for p in np.vstack([x[None, :], axes, pairs])])
    f0, fp, fm = values[0], values[1:2 * n + 1:2], values[2:2 * n + 1:2]
    fpp, fmm = values[2 * n + 1::2], values[2 * n + 2::2]
    H = np.empty((n, n))
    H[np.diag_indices(n)] = (fp - 2.0 * f0 + fm) / (h * h)
    H[i, j] = H[j, i] = ((fpp + fmm - fp[i] - fm[i] - fp[j] - fm[j] + 2.0 * f0)
                         / (2.0 * h[i] * h[j]))
    return H


def _bfgs_gradient(engine, x):
    """The gradient of -log L at x, minus the sum of the per-cluster scores
    G (engine.cluster_scores, (n_clusters, p)), which is -engine.score(x)
    bit for bit, and G; or, where that gradient is not
    finite or x cannot be evaluated, the central differences of -log L,
    whose _BIG penalty keeps the search off invalid points, and None for
    G; engine.fallbacks counts those."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            G = engine.cluster_scores(x)
            g = -np.sum(G, axis=0)
        if np.all(np.isfinite(g)):
            return g, G
    except (FloatingPointError, ValueError):
        pass
    engine.fallbacks += 1
    return central_gradient(partial(_neg_loglik, engine), x, GRAD_STEP), None


def _bhhh_start(G, n):
    """The BFGS start matrix: (G'G)^-1, the inverse of the outer product
    of the per-cluster scores G (Berndt, Hall, Hall & Hausman 1974), and
    a description for the debug record; I, and the reason, where there is
    no G (the gradient fell back to central differences), G has fewer rows
    than columns (G'G is singular, though rounding may let its Cholesky
    factorisation succeed), G'G is not finite (G is finite wherever its sum
    is, but G'G may overflow) or G'G is not positive definite to working
    precision: its smallest eigenvalue is at most n eps times its largest
    (a parameter that moves no cluster's log L)."""
    if G is None:
        return np.eye(n), "identity (central-difference gradient)"
    if len(G) < n:
        return np.eye(n), "identity (fewer clusters than parameters)"
    with np.errstate(over="ignore", invalid="ignore"):
        B = G.T @ G
    if not np.all(np.isfinite(B)):
        return np.eye(n), "identity (outer product not finite)"
    eig = np.linalg.eigvalsh(B)  # as _vcov does; np.linalg.cond's SVD adds 0.4 MB of RSS
    if eig[0] > eig[-1] * n * np.finfo(float).eps:
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(B))
            return Linv.T @ Linv, f"BHHH, condition number {eig[-1] / eig[0]:.6g}"
        except np.linalg.LinAlgError:
            pass
    return np.eye(n), "identity (outer product not positive definite)"


def _bfgs(engine, x0, f0, max_iter: int):
    """BFGS ascent on the engine's log-likelihood, minimizing f = -log L
    with backtracking line search, from x0 where f is f0.

    The inverse Hessian approximation starts from the BHHH matrix (G'G)^-1
    of the per-cluster scores G at x0, which scales the first steps to the
    likelihood's curvature, and from I where there is none (_bhhh_start);
    it is reset to I wherever its direction is not a descent direction.
    Converged when the gradient inf-norm falls below GRAD_TOL and the
    relative objective change falls below REL_TOL.  Logs a debug record of
    the start matrix, then one per iteration with the engine's counts of
    calls, scores and central-difference fallbacks so far and the number
    of resets to I.
    """
    f = partial(_neg_loglik, engine)
    x = np.asarray(x0, dtype=float)
    n = len(x)
    fx = f0
    g, G = _bfgs_gradient(engine, x)
    Hinv, start = _bhhh_start(G, n)
    log.debug("start: %s", start)
    converged = False
    it = resets = 0
    rel_change = np.inf
    while it < max_iter:
        gmax = np.max(np.abs(g))
        if gmax < GRAD_TOL and rel_change < REL_TOL:
            converged = True
            break
        p = -Hinv @ g
        slope = g @ p
        if slope >= 0:
            Hinv = np.eye(n)
            resets += 1
            p = -g
            slope = g @ p
            if slope >= 0:
                converged = gmax < GRAD_TOL
                break
        alpha, ok = 1.0, False
        for halvings in range(40):
            x_new = x + alpha * p
            f_new = f(x_new)
            if f_new <= fx + 1e-4 * alpha * slope:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            converged = gmax < GRAD_TOL
            break
        g_new, _ = _bfgs_gradient(engine, x_new)
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
        it += 1
        log.debug("iteration %d: logL %.10g, max|g| %.3g, alpha %.3g, %d halvings, "
                  "%d engine calls, %d scores, %d fallbacks, %d resets", it, -fx,
                  np.max(np.abs(g)), alpha, halvings, engine.calls, engine.scores,
                  engine.fallbacks, resets)
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
    _check_observed_covariates(spec, data)
    controls = controls or FitControls()
    ev = evaluator or Evaluator(spec, data)
    engine = LikelihoodEngine(ev, seed=controls.seed)

    x0 = start_values(engine)
    # a model that cannot be evaluated at all raises here instead of
    # leaving the search on the _BIG penalty plateau
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ll0 = engine.total_loglik(x0)
    f0 = -ll0 if np.isfinite(ll0) else _BIG
    xhat, fhat, it, converged = _bfgs(engine, x0, f0, controls.max_iter)

    vcov = _vcov(engine, xhat)

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


def _check_observed_covariates(spec: ModelSpec, data: Dataset) -> None:
    """Raise DataError, naming the submodel, the column and the row count,
    when a column that a submodel's predictor reads is missing on some of
    its observed rows: a covariate, an rcs/fp/exposure variable, or the
    timevar, which gives a non-survival submodel's times (a survival
    submodel's are its response times)."""
    for i, sub in enumerate(spec.submodels):
        timevar = sub.timevar or ""
        names = [timevar] if timevar and not sub.is_survival else []
        names += [el.var for comp in sub.components for el in comp.elements
                  if el.kind in ("variable", "exposure_log", "rcs", "fp")
                  and not el.is_time_function(timevar)]
        rows = response_view(data, sub.response).observed_rows
        for name in dict.fromkeys(names):
            missing = int(np.count_nonzero(np.isnan(data.column(name)[rows])))
            if missing:
                raise DataError(
                    f"submodel {i + 1} ({sub.family} : {sub.formula()}): {name!r} is "
                    f"missing on {missing} of its {len(rows)} observed rows")


def _vcov(engine, xhat):
    """The inverse Hessian of -log L at xhat, or None, with a RuntimeWarning
    that gives the reason.

    The Hessian is the engine's exact observed information where
    engine.exact_information holds (every submodel's row scores are
    analytic and there is at most one level); there it may not be finite
    at the estimates, and the warning says whether log L is.  Every other
    model keeps the grid of symmetric second differences (central_hessian),
    where a grid point may have the _BIG penalty.  On both, the Hessian may
    be singular or have a variance that is not finite and positive.  The
    grid's may also be singular to within its rounding error: each entry
    carries about 4 eps |log L| / (h_i h_j) of it, whose Frobenius norm
    4 eps |log L| sum_i h_i^-2 bounds the smallest eigenvalue that is told
    from 0.  Logs a debug record of the Hessian's source (its cluster
    count or grid point count), smallest eigenvalue and condition number."""
    labels = engine.ev.layout.labels
    if engine.exact_information:
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                H = engine.information(xhat)
        except (FloatingPointError, ValueError):
            H = np.full((len(xhat), len(xhat)), np.nan)
        source = f"exact information, {engine.n_clusters} clusters"
        if not np.all(np.isfinite(H)):
            log.debug("Hessian: %s, not finite", source)
            _no_vcov(("log L" if _neg_loglik(engine, xhat) >= _BIG else "the information")
                     + " is not finite at the estimates")
            return None
        penalized = None
    else:
        points, values = [], []

        def objective(x):
            points.append(x)
            values.append(_neg_loglik(engine, x))
            return values[-1]

        H = central_hessian(objective, xhat, HESS_STEP)
        points, values = np.asarray(points), np.asarray(values)
        source = f"{len(points)} points"
        penalized = values >= _BIG
        # values[0] is f at xhat
        noise = 4.0 * np.finfo(float).eps * abs(values[0]) * np.sum(
            _gradient_points(xhat, HESS_STEP)[1] ** -2.0)
    eig = np.linalg.eigvalsh(H)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.max(np.abs(eig)) / np.min(np.abs(eig))
    log.debug("Hessian: %s, smallest eigenvalue %.6g, condition number %.6g",
              source, eig[0], cond)
    if penalized is not None and np.any(penalized):
        # name the parameters of the penalized points that move the fewest,
        # so a point moving i and j is blamed on i alone when x - h_i e_i
        # is penalized too
        moved = points[penalized] != xhat
        counts = moved.sum(axis=1)
        names = [labels[k] for k in np.flatnonzero(moved[counts == counts.min()].any(axis=0))]
        _no_vcov(("log L is not finite a Hessian step from the estimates in "
                  + ", ".join(names)) if names else "log L is not finite at the estimates")
        return None
    try:
        vcov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        _no_vcov("the Hessian is singular")
        return None
    d = np.diag(vcov)
    bad = ~np.all(np.isfinite(vcov), axis=0) | ~(d > 0)
    if np.any(bad):
        _no_vcov("the inverse Hessian has a non-finite or non-positive variance of "
                 + ", ".join(labels[k] for k in np.flatnonzero(bad))
                 + f" (smallest eigenvalue {eig[0]:.6g})")
        return None
    if penalized is not None and eig[0] <= noise:
        _no_vcov(f"the grid Hessian (smallest eigenvalue {eig[0]:.6g}, rounding error "
                 f"{noise:.6g}) is singular to within its rounding error")
        return None
    return vcov


def _no_vcov(reason):
    warnings.warn(f"no standard errors: {reason}", RuntimeWarning, stacklevel=4)


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


def _wald(est, se):
    """z statistics, two-sided normal p-values and 95% intervals; z is NaN
    where the standard error is not positive.  ndtr(-|z|) and ndtri are
    the bits of scipy.stats.norm.sf(|z|) and norm.ppf without loading
    scipy.stats."""
    from scipy.special import ndtr, ndtri
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, est / se, np.nan)
    crit = ndtri(0.975)
    return z, 2.0 * ndtr(-np.abs(z)), est - crit * se, est + crit * se


def summary_table(fit: FitResult) -> str:
    """Aligned coefficient table with z tests and 95% intervals."""
    se = fit.std_errors()
    est = fit.estimates
    z, p, lo, hi = _wald(est, se)
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
