"""User-defined family interface.

A user family is a callable taking a UserFamilyContext and returning the
per-observation log-likelihood contributions (an (n,) vector or an
(n, n_draws) matrix).  Registered families are selected in a model spec
with `family = user` and a `userf` name, and run inside the same
integration and optimization machinery as the built-ins.
"""

import numpy as np

from .quadrature import Frame

_REGISTRY: dict = {}


class UserFamilyError(ValueError):
    pass


def register_user_family(name: str, logl_fn, replace: bool = False) -> str:
    if not replace and name in _REGISTRY:
        raise UserFamilyError(f"user family {name!r} already registered")
    _REGISTRY[name] = logl_fn
    return name


def get_user_family(name: str):
    if name not in _REGISTRY:
        raise UserFamilyError(f"no user family named {name!r}")
    return _REGISTRY[name]


class UserFamilyContext:
    """Read-only accessors over the current submodel's state.

    The `_mod` variants address any submodel by 1-based index, allowing
    submodels to be linked from inside a user likelihood.  Called with
    t=None they evaluate on the frame of the observations (the likelihood
    engine's kept frame during a fit); explicit times get a transient frame.
    A context holds one parameter point and its draws.
    """

    def __init__(self, evaluator, params, sub_idx, at, draws):
        self._ev = evaluator
        self._params = params
        self._sub = sub_idx
        self._at = at
        self._draws = draws

    def depvar(self) -> np.ndarray:
        """Response values: (n,) scalar or (n, 2) time/event matrix."""
        return self._at.y.copy()

    def timevar(self) -> np.ndarray:
        if self._at.t is None:
            raise UserFamilyError("submodel has no timevar")
        return self._at.t.copy()

    def ap(self, i: int) -> float:
        """i-th ancillary parameter (1-based)."""
        idx = self._ev.subs[self._sub].ap_idx
        if not 1 <= i <= len(idx):
            raise UserFamilyError(f"ancillary index {i} out of range (1..{len(idx)})")
        return float(self._params[idx[i - 1]])

    def _frame(self, t):
        if t is None:
            return self._at
        rows = self._at.rows
        return Frame(rows, np.broadcast_to(np.asarray(t, dtype=float), (len(rows),)))

    def _xzb(self, m, t, order):
        return self._ev.eta(self._params, m, self._frame(t), self._draws, order)

    def xzb(self, t=None):
        return self._xzb(self._sub, t, "value")

    def xzb_deriv(self, t=None):
        return self._xzb(self._sub, t, "d1")

    def xzb_deriv2(self, t=None):
        return self._xzb(self._sub, t, "d2")

    def xzb_integ(self, t=None):
        return self._xzb(self._sub, t, "integral")

    def xzb_mod(self, m: int, t=None):
        return self._xzb(self._check_mod(m), t, "value")

    def expval_mod(self, m: int, t=None):
        return self._ev.expval(self._params, self._check_mod(m), self._frame(t),
                               self._draws, "value")

    def _check_mod(self, m: int) -> int:
        if not 1 <= m <= len(self._ev.subs):
            raise UserFamilyError(f"submodel index {m} out of range")
        return m - 1


def logl_gaussian(ctx: UserFamilyContext) -> np.ndarray:
    """Reference user family: the gaussian density written via accessors."""
    y = ctx.depvar()
    xzb = ctx.xzb()
    se = np.exp(ctx.ap(1))
    sq = (xzb - y[:, None]) ** 2
    return (-0.5 * np.log(2.0 * np.pi) - np.log(se)) - sq / (2.0 * se**2)


def logl_exponential(ctx: UserFamilyContext) -> np.ndarray:
    """Reference user family: exponential survival, log h = eta."""
    y = ctx.depvar()
    t, d = y[:, 0], y[:, 1]
    eta = ctx.xzb()
    return d[:, None] * eta - t[:, None] * np.exp(eta)


register_user_family("logl_gaussian", logl_gaussian)
register_user_family("logl_exponential", logl_exponential)
