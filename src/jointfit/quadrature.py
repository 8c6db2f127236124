"""Node/weight rules for integrating over random effects and over time.

Random-effect integrals use nodes in standard-normal space (Gauss-Hermite
product rules, Halton/Sobol quasi-random sequences, or plain Monte Carlo
draws), which are rescaled by the current random-effect covariance factor
at every likelihood evaluation.  Time integrals use Gauss-Legendre rules over
a Frame, the rows and times at which a predictor is evaluated, in blocks of
nodes sized before the first integrand call from the rows and the
integrand's width, each block's node terms summed in node order in one
reduction; a frame kept by the likelihood engine keeps the node blocks it
derives and the parameter-free values evaluated there, a transient frame
keeps nothing.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# output values per stacked time-integrand call: a block holds as many
# nodes as fit, sized before the first call from the rows and the width the
# caller states.  Without a cap a nested integral stacks every node at once
# (an rmst of 30 rows: 45,000 rows of a cumulative hazard).  A block holds
# at least one node, so rows that are wide with many random-effect nodes
# take more, smaller blocks.
TIME_BLOCK_DOUBLES = 2**13

# least and most points of each random-effect integration method
IP_RANGE = {"ghermite": (1, 200), **dict.fromkeys(("halton", "sobol", "mc"), (2, np.inf))}


@dataclass(frozen=True)
class NodeSet:
    """Integration nodes in standard-normal space with matching weights."""

    nodes: np.ndarray    # (n, r)
    weights: np.ndarray  # (n,), sums to 1
    method: str
    n_points: int        # per-dimension count (GH) or total (QMC/MC)


def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One-dimensional probabilists' Gauss-Hermite rule.

    Returns nodes z and weights w with sum(w) == 1, so that
    integral of f(z) against the standard normal density is approximately
    sum(w * f(z)).  Exact for polynomials of degree <= 2n - 1.
    """
    lo, hi = IP_RANGE["ghermite"]
    if not lo <= n <= hi:
        raise ValueError(f"Gauss-Hermite point count must be in [{lo}, {hi}], got {n}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    weights = weights / np.sqrt(2.0 * np.pi)
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [a, b], exact for polynomials of degree <= 2n - 1."""
    if n < 1:
        raise ValueError("need at least one Gauss-Legendre point")
    if not a < b:
        raise ValueError(f"invalid interval [{a}, {b}]")
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


class Frame:
    """Rows and times at which a predictor is evaluated, with their
    responses y when the frame holds a submodel's observations.

    A kept frame (keep=True), one per chunk and submodel of the likelihood
    engine, keeps, filled on first use, the values there that do not depend
    on the parameters and its node-block children.  A node block
    (block=True) derives only transient frames, so a nested time integral
    keeps rows x n points, not rows x n^2.  A transient frame, built for a
    prediction or an explicit-time call, keeps nothing.
    """

    def __init__(self, rows, t, y=None, keep=False, block=False):
        self.rows = rows
        self.t = None if t is None else np.asarray(t, dtype=float)
        self.y = y
        self.kept = {} if keep else None
        self.block = block

    def keep(self, key, make):
        """make(), kept under key by a kept frame and reused after."""
        if self.kept is None:
            return make()
        if key not in self.kept:
            self.kept[key] = make()
        return self.kept[key]

    def child(self, key, make):
        """The node block of the (rows, t) pair make() returns, kept under
        key and itself kept when this frame is kept and not a node block."""
        if self.block:
            return Frame(*make())
        return self.keep(key, lambda: Frame(*make(), keep=self.kept is not None,
                                            block=True))


def integrate_to(fn, at: Frame, n: int, width: int) -> np.ndarray:
    """n-point Gauss-Legendre integral of fn over (0, at.t], per row.

    fn(block) maps a frame of row indices and equally many times to a
    (len(block.rows), width) array.  It is called once per block of nodes,
    the block's times stacked node-major and its rows tiled; every block
    but the last holds as many nodes as fit in TIME_BLOCK_DOUBLES values.
    Nodes are clamped to at least 1e-300, so fn may take logs of time.
    Each block is weighted in one multiply, the running sum of the blocks
    before is added to its first node's terms, and its node terms are
    summed in one reduction along the node axis, which numpy adds in node
    order unless that axis is the fastest in memory (one row: then a loop
    adds them).  So the result does not depend on the blocking.  A kept
    frame that is not itself a node block keeps each block's frame, keyed
    by (n, first node, end node).
    """
    x, w = _legendre(n)
    half = 0.5 * at.t
    m = len(half)
    size = max(1, TIME_BLOCK_DOUBLES // max(1, m * width))
    acc = None
    for k in range(0, n, size):
        end = min(n, k + size)
        block = at.child(("nodes", n, k, end), lambda: (
            np.tile(at.rows, end - k),
            np.maximum(half * (x[k:end, None] + 1.0), 1e-300).ravel()))
        vals = fn(block)
        terms = vals.reshape(end - k, m, vals.shape[-1]) * (w[k:end, None] * half)[:, :, None]
        if m == 1:
            # the node axis is the fast one, which numpy would sum pairwise
            for term in terms:
                acc = term if acc is None else acc + term
            continue
        if acc is not None:
            terms[0] += acc
        # along an axis that is not the fastest, numpy adds in node order
        acc = np.add.reduce(terms, axis=0)
    return acc


def gh_product_rule(n: int, r: int) -> NodeSet:
    """Tensor-product Gauss-Hermite rule in r dimensions (n^r points)."""
    z, w = gauss_hermite(n)
    if r == 0:
        return NodeSet(np.zeros((1, 0)), np.ones(1), "ghermite", n)
    grids = np.meshgrid(*([z] * r), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    wgrids = np.meshgrid(*([w] * r), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
    return NodeSet(nodes, weights, "ghermite", n)


def qmc_nodes(method: str, n: int, r: int, seed: int = 0) -> NodeSet:
    """Quasi- or pseudo-random normal node set with uniform weights 1/n.

    Uniform points on (0,1)^r are mapped through the standard-normal
    inverse CDF.  Halton (first r primes as bases) and Sobol (Joe-Kuo
    direction numbers) are scipy's unscrambled sequences without their
    all-zeros first point; mc draws from a seeded generator, so equal seeds
    give bitwise-identical node sets.
    """
    if n < IP_RANGE["mc"][0]:
        raise ValueError(f"QMC/MC integration needs at least {IP_RANGE['mc'][0]} points")
    if r < 1:
        raise ValueError("dimension must be >= 1")
    from scipy.special import ndtri  # scipy is loaded only for these node sets
    from scipy.stats import qmc
    if method in ("halton", "sobol"):
        engine = qmc.Halton if method == "halton" else qmc.Sobol
        u = engine(d=r, scramble=False).random(n + 1)[1:]
    elif method == "mc":
        rng = np.random.default_rng(seed)
        u = rng.random((n, r))
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
    else:
        raise ValueError(f"unknown integration method {method!r}")
    nodes = ndtri(u)
    weights = np.full(n, 1.0 / n)
    return NodeSet(nodes, weights, method, n)


def level_nodes(method: str, ip: int, r: int, seed: int = 0) -> NodeSet:
    """Node set for one random-effect level (GH product rule or QMC/MC)."""
    if r == 0:
        return NodeSet(np.zeros((1, 0)), np.ones(1), method, ip)
    if method == "ghermite":
        return gh_product_rule(ip, r)
    return qmc_nodes(method, ip, r, seed)


@dataclass
class CovarianceParam:
    """Random-effect covariance of one level, F F' with F = diag(exp(log_sd)) @ L.

    L = I for identity and diagonal.  For unstructured, L is the partial-
    correlation factor (Lewandowski, Kurowicka & Joe 2009): with z = tanh of
    atanh_corr in parameter order (row i, then j < i), L[0, 0] = 1,
    L[i, j] = z[i, j] sqrt(r[i, j]) and L[i, i] = sqrt(r[i, i]), r[i, j] the
    product of 1 - z[i, k]^2 over k < j.  L L' is a correlation matrix for
    every parameter value; z[i, 0] is a correlation, z[i, j > 0] a partial
    correlation given effects 0..j-1.
    """

    structure: str                      # identity | diagonal | unstructured
    log_sd: np.ndarray = field(default_factory=lambda: np.zeros(0))
    atanh_corr: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def dim(self) -> int:
        return len(self.log_sd)

    def cholesky(self) -> np.ndarray:
        d = self.dim
        D = np.diag(np.exp(self.log_sd))
        if self.structure != "unstructured" or d <= 1:
            return D
        zs = iter(np.tanh(self.atanh_corr))
        L = np.eye(d)
        for i in range(1, d):
            r = 1.0  # a running product, which rounding cannot take below 0
            for j in range(i):
                z = next(zs)
                L[i, j] = z * np.sqrt(r)
                r *= 1.0 - z * z
            L[i, i] = np.sqrt(r)
        return D @ L


def transform_nodes(ns: NodeSet, cov: CovarianceParam) -> np.ndarray:
    """Scale standard-normal nodes into random-effect draws b = z L'."""
    if ns.nodes.shape[1] != cov.dim:
        raise ValueError(
            f"node dimension {ns.nodes.shape[1]} != covariance dimension {cov.dim}"
        )
    if cov.dim == 0:
        return ns.nodes
    return ns.nodes @ cov.cholesky().T
