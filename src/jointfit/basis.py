"""Restricted cubic spline and fractional polynomial bases.

Both bases evaluate values, analytic first/second time derivatives, and
integrals over (0, t].  The restricted cubic basis is

    b_1(x) = x
    v_j(x) = (x - k_j)^3_+ - lam_j (x - k_min)^3_+ - (1 - lam_j)(x - k_max)^3_+

with lam_j = (k_max - k_j) / (k_max - k_min), which is linear beyond the
boundary knots.  With df degrees of freedom there are df + 1 knots and df
basis columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .quadrature import Frame, integrate_to

_INTEG_GL_POINTS = 30


def nearest_rank_quantile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of an ascending vector, q in (0, 1)."""
    n = len(sorted_values)
    k = int(np.ceil(q * n)) - 1
    return float(sorted_values[min(max(k, 0), n - 1)])


def rcs_knots(
    values: np.ndarray,
    df: int,
    event_only: bool = False,
    event_mask: np.ndarray | None = None,
    log_time: bool = False,
) -> np.ndarray:
    """Knot vector for an rcs term: boundary knots at min/max, df - 1
    internal knots at evenly spaced nearest-rank centiles.

    With event_only the centiles are computed over event rows only.
    """
    if df < 1:
        raise ValueError("rcs requires df >= 1")
    v = np.asarray(values, dtype=float)
    keep = ~np.isnan(v)
    if event_only:
        if event_mask is None:
            raise ValueError("event_only knots need an event mask")
        keep &= np.asarray(event_mask) > 0
    v = v[keep]
    if log_time:
        if np.any(v <= 0):
            raise ValueError("log-time rcs needs strictly positive values")
        v = np.log(v)
    v = np.sort(v)
    if len(np.unique(v)) < df + 1:
        raise ValueError(
            f"need at least {df + 1} distinct values for df={df}, have {len(np.unique(v))}"
        )
    knots = [v[0]]
    for i in range(1, df):
        knots.append(nearest_rank_quantile(v, i / df))
    knots.append(v[-1])
    knots = np.asarray(knots)
    if np.any(np.diff(knots) <= 0):
        raise ValueError(f"ties in data produce duplicate knots: {knots}")
    return knots


def orthogonalize(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt transform making basis columns orthonormal over the sample.

    Returns (shift, mat) such that columns @ mat + shift has columns that are
    mutually orthogonal, orthogonal to the constant column, and of unit
    mean-square norm (inner product u.v / n).  The transform is affine in the
    raw basis, so it commutes with differentiation up to dropping the shift.
    """
    n, d = columns.shape
    X = np.column_stack([np.ones(n), columns])
    q, r = np.linalg.qr(X)
    # fix signs so the transform is deterministic
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    r = signs[:, None] * r
    if abs(np.linalg.det(r)) < 1e-12 * n:
        raise ValueError("rank-deficient basis columns, cannot orthogonalize")
    rinv = np.linalg.inv(r) * np.sqrt(n)
    shift = rinv[0, 1:]
    mat = rinv[1:, 1:]
    return shift, mat


@dataclass
class RcsBasis:
    knots: np.ndarray
    log_time: bool = False
    orthog_shift: np.ndarray | None = None
    orthog_mat: np.ndarray | None = None

    @property
    def df(self) -> int:
        return len(self.knots) - 1

    def fit_orthog(self, sample_values: np.ndarray) -> None:
        """Capture the orthogonalization transform on the fitting sample."""
        raw = self._raw(np.asarray(sample_values, dtype=float), "value")
        self.orthog_shift, self.orthog_mat = orthogonalize(raw)

    def _raw_x(self, x: np.ndarray, order: str) -> np.ndarray:
        """Raw basis in the (possibly log) spline variable x."""
        k = self.knots
        kmin, kmax = k[0], k[-1]
        cols = []
        if order == "value":
            cols.append(x)
        elif order == "d1":
            cols.append(np.ones_like(x))
        elif order == "d2":
            cols.append(np.zeros_like(x))
        elif order == "integral":
            cols.append(0.5 * x**2)
        # each spline column is scale * (p(x - kj) - lam p(x - kmin)
        # - (1 - lam) p(x - kmax)) with p(u) = max(u, 0)**power; the two
        # boundary terms are the same for every column
        power, scale = {"value": (3, 1.0), "d1": (2, 3.0), "d2": (1, 6.0),
                        "integral": (4, 0.25)}[order]
        pmin = np.maximum(x - kmin, 0.0) ** power
        pmax = np.maximum(x - kmax, 0.0) ** power
        for kj in k[1:-1]:
            lam = (kmax - kj) / (kmax - kmin)
            cols.append(scale * (np.maximum(x - kj, 0.0) ** power
                                 - lam * pmin - (1 - lam) * pmax))
        return np.column_stack(cols)

    def _raw(self, t: np.ndarray, order: str) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not self.log_time:
            return self._raw_x(t, order)
        if np.any(t <= 0):
            raise ValueError("log-time rcs requires t > 0")
        x = np.log(t)
        if order == "value":
            return self._raw_x(x, "value")
        if order == "d1":
            return self._raw_x(x, "d1") / t[:, None]
        if order == "d2":
            return (self._raw_x(x, "d2") - self._raw_x(x, "d1")) / (t**2)[:, None]
        return self._log_integral(t)

    def _log_integral(self, t: np.ndarray) -> np.ndarray:
        # first column: int_0^t log u du = t (log t - 1); spline columns are
        # zero below exp(k_min) and only piecewise smooth at the interior
        # knots, so Gauss-Legendre runs per inter-knot segment, for all rows
        # at once: a row's length in a segment is zero outside it
        out = np.zeros((len(t), self.df))
        out[:, 0] = t * (np.log(t) - 1.0)
        cuts = np.append(np.exp(self.knots[:-1]), np.inf)
        rows = np.arange(len(t))
        for a, c in zip(cuts[:-1], cuts[1:]):
            length = np.clip(t, a, c) - a
            out[:, 1:] += integrate_to(
                lambda block: self._raw_x(np.log(a + block.t), "value")[:, 1:],
                Frame(rows, length), _INTEG_GL_POINTS, self.df - 1)
        return out

    def eval(self, t: np.ndarray, order: str = "value") -> np.ndarray:
        """Basis row(s) at times t; order in {value, d1, d2, integral}."""
        raw = self._raw(np.atleast_1d(np.asarray(t, dtype=float)), order)
        if self.orthog_mat is None:
            return raw
        out = raw @ self.orthog_mat
        if order == "value":
            out = out + self.orthog_shift
        elif order == "integral":
            tt = np.atleast_1d(np.asarray(t, dtype=float))
            out = out + np.outer(tt, self.orthog_shift)
        return out


@dataclass
class FpBasis:
    """Fractional polynomial basis of order 1 or 2.

    Power 0 denotes natural log; a repeated power p yields t^p and
    t^p * log t.
    """

    powers: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= len(self.powers) <= 2:
            raise ValueError("fp supports 1 or 2 powers")
        self.powers = tuple(float(p) for p in self.powers)

    @property
    def df(self) -> int:
        return len(self.powers)

    def _term(self, t, p, with_log, order):
        logt = np.log(t)
        if order == "value":
            base = logt if p == 0 else t**p
            return base * logt if with_log else base
        if order == "d1":
            if with_log:
                # d/dt t^p log t = p t^(p-1) log t + t^(p-1)
                return t ** (p - 1) * (p * logt + 1.0) if p != 0 else 2.0 * logt / t
            return 1.0 / t if p == 0 else p * t ** (p - 1)
        if order == "d2":
            if with_log:
                if p == 0:
                    return (2.0 - 2.0 * logt) / t**2
                return t ** (p - 2) * (p * (p - 1) * logt + 2 * p - 1)
            return -1.0 / t**2 if p == 0 else p * (p - 1) * t ** (p - 2)
        # integral over (0, t]
        if with_log:
            if p == -1:
                return 0.5 * logt**2
            if p == 0:
                return t * (logt**2 - 2.0 * logt + 2.0)
            q = p + 1.0
            return t**q * (logt / q - 1.0 / q**2)
        if p == 0:
            return t * (logt - 1.0)
        if p == -1:
            return logt
        return t ** (p + 1) / (p + 1)

    def eval(self, t: np.ndarray, order: str = "value") -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t <= 0):
            raise ValueError("fp basis requires t > 0")
        cols = []
        prev = None
        for p in self.powers:
            with_log = prev is not None and p == prev
            cols.append(self._term(t, p, with_log, order))
            prev = p
        return np.column_stack(cols)
