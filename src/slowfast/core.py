"""Domain types for fast-slow systems: norms, grids, grid functions, systems,
cutoff localization.

A fast-slow system here is the autonomous pair

    x' = F(x, y) = A0(y) x + R0(x, y),      x in R^m  (the fast space),
    y' = g(x, y),                           y in a compact box Vbar in R^n,

with A0(y) = D_x F(0, y).  The fast space may carry the sup norm instead of
the Euclidean one (NF1's nodes stand in for a discretized function space).
Everything downstream (norm estimates, contraction certificates) is generic
in that norm.

All types here are immutable after construction (grid-function value arrays
are treated as frozen by convention) and every evaluation is pure, so
concurrent sweeps over grids or parameter sets need no locking.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, PreconditionError

NORM_KINDS = ("euclidean", "sup")
BALL_SAFETY = 1.1      # factor on the Lipschitz estimate, a lower bound, in the ball norm
# A one-point GridFunction read sums its corner rows in Python floats when a
# value has at most FLOAT_SUM_MAX entries, else in numpy.  Per read (2 CPUs,
# one BLAS thread, Python 3.11.7, numpy 2.4.6), on 101 nodes floats take
# 0.6 / 0.9 / 1.2 / 1.5 / 2.9 us at 1 / 8 / 16 / 24 / 64 entries and numpy
# 1.4-1.5 us; on 41 x 41 nodes floats take 1.3 / 2.5 / 2.7 us at 1 / 16 / 20
# entries and numpy 2.5-2.6 us.
FLOAT_SUM_MAX = 16


def vector_norm(v, kind="euclidean"):
    """Norm of v along its last axis.  Batched input is fine."""
    v = np.asarray(v, dtype=float)
    if kind == "euclidean":
        return np.linalg.norm(v, axis=-1)
    if kind == "sup":
        return np.max(np.abs(v), axis=-1)
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True)
class GridDomain:
    """Compact box Vbar = prod_a [lower_a, upper_a] with a uniform tensor grid."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        pts = np.atleast_1d(np.asarray(self.points_per_axis, dtype=int))
        if pts.shape == (1,) and lo.shape[0] > 1:
            pts = np.full(lo.shape, pts[0])
        if not (lo.shape == hi.shape == pts.shape) or lo.ndim != 1 or lo.size < 1:
            raise ValueError("lower/upper/points_per_axis must be matching vectors")
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ValueError("need lower < upper componentwise")
        if not np.all(pts >= 2):
            raise ValueError("need at least 2 grid points per axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "points_per_axis", pts)

    @property
    def n(self):
        return self.lower.shape[0]

    @property
    def shape(self):
        return tuple(int(p) for p in self.points_per_axis)

    @property
    def spacing(self):
        return (self.upper - self.lower) / (self.points_per_axis - 1)

    @property
    def diameter(self):
        return float(np.linalg.norm(self.upper - self.lower))

    def axes(self):
        return [np.linspace(self.lower[a], self.upper[a], self.shape[a]) for a in range(self.n)]

    @property
    def node_count(self):
        return int(np.prod(self.points_per_axis))

    def node_coords(self):
        """All grid nodes as an (N, n) array, C-ordered over the tensor grid."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, y):
        """Whether y lies in the box, up to 1e-12 of each side's length (at least 1e-12)."""
        y = np.asarray(y, dtype=float)
        slack = 1e-12 * np.maximum(1.0, np.abs(self.upper - self.lower))
        return np.all((y >= self.lower - slack) & (y <= self.upper + slack), axis=-1)

    def sample(self, rng, size):
        return rng.uniform(self.lower, self.upper, size=(size, self.n))


class GridFunction:
    """A map sigma: Vbar -> values sampled on the tensor grid, with multilinear
    interpolation between nodes.

    `values` has shape grid_shape + value_shape; value_shape may be (m,) for a
    manifold parameterization, (m, n) for a derivative field, (m, n, n) for a
    second-derivative field.  Evaluation at a grid node returns the stored
    value to round-off.  Evaluation outside the box uses constant (clamped)
    extension, which preserves both the sup norm and the Lipschitz estimate.
    The interpolation set-up (bounds, strides, cell corners) is done at construction.
    On a one-axis grid (every named system's), a call at one slow state, y of
    shape (1,), finds its cell and corner weights in Python floats with the
    array path's IEEE operations in its order, so it returns the same bytes
    without the per-call array set-up.  It sums the two corner rows in floats
    too, from node rows kept as float lists once first read, unless a value has
    more than FLOAT_SUM_MAX entries; then numpy sums them.  Batches, points on
    grids of n >= 2 axes, a NaN coordinate and GridStack reads (whose y carries
    the block axis) take the array path.

    `value_norm` (default: the flat Euclidean norm) measures one value; like the
    system callables it must broadcast over leading axes, as `sys.norm_x` does,
    since the norms of all nodes are taken in one call.
    """

    def __init__(self, domain: GridDomain, values, value_norm=None):
        values = np.asarray(values, dtype=float)
        if values.shape[: domain.n] != domain.shape:
            raise ValueError("values leading shape must equal the grid shape")
        self.domain = domain
        self.values = values
        self.value_shape = values.shape[domain.n:]
        self._flat = values.reshape((domain.node_count,) + self.value_shape)
        self.value_norm = value_norm
        self._lower, self._upper, self._spacing = domain.lower, domain.upper, domain.spacing
        self._top = np.asarray(domain.shape) - 2                       # last cell's lower index
        self._strides = np.cumprod((domain.shape + (1,))[::-1])[::-1][1:]  # ravel strides
        corners = (np.arange(2 ** domain.n)[:, None] >> np.arange(domain.n)) & 1  # 1: upper side
        self._upper_side = corners[:, None, :].astype(bool)            # (2^n, 1, n)
        self._offsets = (corners @ self._strides)[:, None]             # (2^n, 1) flat offsets
        self._pad = (1,) * len(self.value_shape)             # weights broadcast over values
        # for one point on one axis: (lower, upper, spacing, top) in floats, and
        # the node rows as float lists once first read
        self._point = (self._lower[0].item(), self._upper[0].item(), self._spacing[0].item(),
                       self._top[0].item()) if domain.n == 1 else None
        self._size = math.prod(self.value_shape)
        self._rows = None

    @classmethod
    def zeros(cls, domain, value_shape=(), value_norm=None):
        return cls(domain, np.zeros(domain.shape + tuple(value_shape)), value_norm=value_norm)

    def with_values(self, values):
        return GridFunction(self.domain, values, value_norm=self.value_norm)

    def __call__(self, y):
        """Multilinear interpolation at y of shape (..., n); clamped outside."""
        y = np.asarray(y, dtype=float)
        # one slow state on one axis (a NaN takes the array path's NaN -> index 0
        # rule): the set-up below in floats, op for op; on a tie (+-0.0)
        # np.maximum(a, b) returns b, and so does `v if v > b else b`
        if y.shape == (1,) and self._point is not None and (v := y.item()) == v:
            lo, hi, h, top = self._point
            v = v if v > lo else lo
            t = ((v if v < hi else hi) - lo) / h
            i = int(t)                     # t >= 0: truncation is floor
            i = i if i < top else top
            frac = t - i
            w0, w1 = 1.0 - frac, frac
            # the corner sum: from +0.0, corner by corner, as below
            if self._size > FLOAT_SUM_MAX:
                return 0.0 + w0 * self._flat[i] + w1 * self._flat[i + 1]
            rows = self._rows
            if rows is None:
                rows = self._rows = self._flat.reshape(len(self._flat), -1).tolist()
            # in float rows by a plain loop, as a list comprehension costs more
            # than the sum in Python 3.11
            out = []
            for a, b in zip(rows[i], rows[i + 1]):
                out.append(0.0 + w0 * a + w1 * b)
            if len(self.value_shape) == 1:
                return np.array(out)
            arr = np.empty(self.value_shape)    # owns its data, unlike a reshaped view
            arr.flat = out
            return arr
        yf = y.reshape(-1, len(self._strides))
        t = (np.minimum(np.maximum(yf, self._lower), self._upper) - self._lower) / self._spacing
        # t >= 0, so truncation is floor; the max(., 0) keeps a NaN row (cast to
        # INT_MIN) a valid index, so NaN reaches the output instead of an IndexError
        i0 = np.maximum(np.minimum(t.astype(np.intp), self._top), 0)
        frac = t - i0
        w = np.multiply.reduce(np.where(self._upper_side, frac, 1.0 - frac), axis=-1)
        gathered = self._flat.take(i0 @ self._strides + self._offsets, axis=0)
        terms = w.reshape(w.shape + self._pad) * gathered               # (2^n, B, ...)
        # from +0.0, corner by corner: a sum of -0.0 terms stays +0.0 in reports;
        # through a view in the terms' shape, so the result owns its data
        out = np.zeros(y.shape[:-1] + self.value_shape)
        acc = out.reshape(terms.shape[1:])
        for term in terms:
            acc += term
        return out

    def _same_grid(self, other):
        """Whether `other` is sampled on this function's grid (box and nodes)."""
        return (np.array_equal(self._lower, other._lower)
                and np.array_equal(self._upper, other._upper)
                and self.domain.shape == other.domain.shape)

    def _norms(self, values):
        """The value norm of each value stacked on the first axis of `values`;
        without a `value_norm`, the Euclidean norm over all value axes."""
        if self.value_norm is not None:
            return self.value_norm(values)
        flat = values.reshape(len(values), -1)
        return np.sqrt(np.sum(flat * flat, axis=-1))

    def node_norms(self):
        return self._norms(self._flat)

    def sup_norm(self):
        """Max over grid nodes of the value norm (exact on nodes by definition)."""
        return float(np.max(self.node_norms()))

    def lipschitz_estimate(self):
        """Max over adjacent node pairs of |delta sigma| / |delta eta|.

        A lower bound on the true Lipschitz constant of the interpolant.
        """
        dom = self.domain
        best = 0.0
        for a in range(dom.n):
            d = np.diff(self.values, axis=a).reshape((-1,) + self.value_shape)
            best = max(best, float(np.max(self._norms(d))) / dom.spacing[a])
        return best

    def ball_norm(self):
        """sup norm plus BALL_SAFETY * Lipschitz estimate; used for ball membership."""
        return self.sup_norm() + BALL_SAFETY * self.lipschitz_estimate()


class GridStack:
    """K grid functions on one grid, read blockwise: at y of shape (K, ..., n),
    block k is interpolated in the k-th function.

    One call is one gather: the node values of the K functions are
    concatenated row-wise, and each point's cell rows are offset into its
    own block.  The call is GridFunction's own, on a copy of the first
    function that holds the stacked rows and, per corner and point, the
    offsets; so block k equals the k-th function called on y[k], bit for bit.
    """

    def __init__(self, fns):
        head = fns[0]
        for f in fns[1:]:
            if f.value_shape != head.value_shape or not head._same_grid(f):
                raise ValueError("stacked grid functions need one grid and one value shape")
        self._head = head
        self._flat = np.concatenate([f._flat for f in fns])
        self._starts = np.arange(len(fns)) * head.domain.node_count   # first row of each block
        self._readers = {}                   # points per block -> stacked copy of head

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        K = len(self._starts)
        if y.shape[0] != K:
            raise ValueError(f"leading axis {y.shape[0]} of y does not match {K} functions")
        per_block = y.size // (K * y.shape[-1])
        reader = self._readers.get(per_block)
        if reader is None:
            reader = copy.copy(self._head)
            reader._flat = self._flat
            reader._offsets = self._head._offsets + np.repeat(self._starts, per_block)
            self._readers[per_block] = reader
        return reader(y)


# -- named blocks of a flat axis ----------------------------------------------

class _Blocks:
    """Named blocks of a flat last axis (an RK4 state, or the values of a
    joint grid function): the blocks, of the given shape tuples, sit side by
    side in order on that axis."""

    def __init__(self, *shapes):
        cuts = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
        self.blocks = [(slice(a, b), s, len(s) == 1) for a, b, s in zip(cuts, cuts[1:], shapes)]

    def split(self, u):
        """Each block of u as a view in its own shape over u's leading axes."""
        lead = u.shape[:-1]
        return [u[..., k] if flat else u[..., k].reshape(lead + s) for k, s, flat in self.blocks]

    def join(self, lead, *parts):
        """The flat state of one part per block, each broadcast to lead + its shape."""
        out = []
        for p, (_, s, flat) in zip(parts, self.blocks, strict=True):
            if p.shape != lead + s:
                p = np.broadcast_to(p, lead + s)
            out.append(p if flat else p.reshape(lead + (-1,)))
        return np.concatenate(out, axis=-1)


def _joint_reader(*fns):
    """One interpolation for several grid functions on one grid.

    Their node values sit side by side on one flattened value axis of a
    single GridFunction; the returned reader maps y to the list of their
    values at y, each in its own value shape (equal to calling each).
    """
    grid = fns[0].domain
    blocks = _Blocks(*[f.value_shape for f in fns])
    joint = GridFunction(grid, blocks.join(grid.shape, *[f.values for f in fns]))
    return lambda y: blocks.split(joint(y))


@dataclass
class FastSlowSystem:
    """The pair (F, g) with its linearization A0 and optional derivatives.

    Callables take plain arrays and must broadcast over leading axes: given
    stacked inputs x: (..., m), y: (..., n) they return stacked values.
    Derivative conventions:

      DF(x, y)  -> (m, m+n)      Jacobian w.r.t. the joint variable (x, y)
      Dg(x, y)  -> (n, m+n)
      D2F(x, y) -> (m, m+n, m+n) symmetric bilinear second derivative
      D2g(x, y) -> (n, m+n, m+n)

    The optional Fg(x, y) -> (m+n) is the joint field (F, g) in one call, for
    systems whose two fields share work; F and g stay the separate fields.

    `drift_reads_x` False declares a slow drift that does not read x:
    g(x, y) = g(0, y), so D_x g = 0 (the slowly evolving parameters of
    y' = eps).  Like supplying DF it is a property of the system: the
    manifold map then reads a candidate graph only at its lift, and the
    derivative solves apply their map once.
    """

    m: int
    n: int
    F: Callable
    g: Callable
    A0: Callable
    domain: GridDomain
    DF: Optional[Callable] = None
    Dg: Optional[Callable] = None
    D2F: Optional[Callable] = None
    D2g: Optional[Callable] = None
    norm_kind: str = "euclidean"
    Fg: Optional[Callable] = None
    drift_reads_x: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("systems with no slow variables (n = 0) are not supported")
        if self.m < 1:
            raise ValueError("need at least one fast variable")
        if self.domain.n != self.n:
            raise ValueError("domain dimension does not match n")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    # -- norms ------------------------------------------------------------
    def norm_x(self, v):
        return vector_norm(v, self.norm_kind)

    def norm_y(self, v):
        return vector_norm(v, "euclidean")

    def norm_xy(self, vx, vy):
        """Product norm on X x R^n: max of the component norms."""
        return np.maximum(self.norm_x(vx), self.norm_y(vy))

    # -- evaluation ---------------------------------------------------------
    @staticmethod
    def _call(fn, *args):
        return np.asarray(fn(*[np.asarray(a, dtype=float) for a in args]), dtype=float)

    def eval_F(self, x, y):
        return self._call(self.F, x, y)

    def eval_g(self, x, y):
        return self._call(self.g, x, y)

    def eval_Fg(self, x, y):
        """The joint field (F, g) at one point, shape (..., m+n): the system's
        own Fg where it supplies one, else F and g side by side."""
        if self.Fg is not None:
            return self.Fg(x, np.asarray(y, dtype=float))
        return np.concatenate([self.eval_F(x, y), self.eval_g(x, y)], axis=-1)

    def eval_A0(self, y):
        return self._call(self.A0, y)

    def _need(self, name):
        fn = getattr(self, name)
        if fn is None:
            raise CapabilityError(f"system does not supply {name}")
        return fn

    def eval_DF(self, x, y):
        return self._call(self._need("DF"), x, y)

    def eval_Dg(self, x, y):
        return self._call(self._need("Dg"), x, y)

    def eval_D2F(self, x, y):
        return self._call(self._need("D2F"), x, y)

    def eval_D2g(self, x, y):
        return self._call(self._need("D2g"), x, y)

    def DxF(self, x, y):
        """D_x F; central differences in x where the system supplies no DF."""
        if self.DF is None:
            return _central_diff(lambda v: self.eval_F(v, y), x)
        return self.eval_DF(x, y)[..., :, : self.m]

    def Dxg(self, x, y):
        """D_x g; central differences in x where the system supplies no Dg."""
        if self.Dg is None:
            return _central_diff(lambda v: self.eval_g(v, y), x)
        return self.eval_Dg(x, y)[..., :, : self.m]

    def Dyg(self, x, y):
        return self.eval_Dg(x, y)[..., :, self.m:]

    def has_derivatives(self, order=1):
        if order >= 1 and (self.DF is None or self.Dg is None):
            return False
        if order >= 2 and (self.D2F is None or self.D2g is None):
            return False
        return True

    def R0(self, x, y):
        """Remainder of the linear decomposition, F(x,y) - A0(y) x."""
        x = np.asarray(x, dtype=float)
        ax = np.einsum("...ij,...j->...i", self.eval_A0(y), x)
        return self.eval_F(x, y) - ax


# -- finite differences ----------------------------------------------------------

def _central_diff(fn, u):
    """Central differences of fn, at step 1e-6, in each coordinate of u's last
    axis, stacked on a new last axis.  Leading axes of u are a batch."""
    u = np.asarray(u, dtype=float)
    h = 1e-6
    cols = []
    for i in range(u.shape[-1]):
        du = np.zeros_like(u)
        du[..., i] = h
        cols.append((np.asarray(fn(u + du)) - np.asarray(fn(u - du))) / (2 * h))
    return np.stack(cols, axis=-1)


# -- graph coordinates --------------------------------------------------------

def _graph_transform(sys: FastSlowSystem):
    """The field of `sys` in the graph coordinate xt = x - h(y), the change of
    variables of Fenichel theory (Jones, "Geometric singular perturbation
    theory", LNM 1609, 1995):

        Ft(xt, y) = F(xt + h(y), y) - Dh(y) g(xt + h(y), y),
        A(y)      = D_x F(h(y), y) - Dh(y) D_x g(h(y), y),

    A being the fast linearization of Ft at xt = 0.

    Returns (shifted, lin): shifted(xt, y, hy, dhy) gives the pair
    (Ft, g(xt + h(y), y)) and lin(y, hy, dhy) gives A(y), both from the jet
    hy = h(y), dhy = Dh(y) that the caller reads once per evaluation.
    """
    def shifted(xt, y, hy, dhy):
        x = xt + hy
        gv = sys.eval_g(x, y)
        return sys.eval_F(x, y) - np.einsum("...ij,...j->...i", dhy, gv), gv

    def lin(y, hy, dhy):
        return sys.DxF(hy, y) - np.einsum("...ij,...jk->...ik", dhy, sys.Dxg(hy, y))

    return shifted, lin


# -- cutoff localization ------------------------------------------------------

def chi(r):
    """Smooth bump: 1 for r <= 0.5, 0 for r >= 1, C-infinity between."""
    t = (np.asarray(r, dtype=float) - 0.5) / 0.5
    return _smooth_step(1.0 - t)


def dchi(r):
    """Derivative of chi, from the exp-type transition in closed form."""
    t = 1.0 - (np.asarray(r, dtype=float) - 0.5) / 0.5
    return -_smooth_step_prime(t) / 0.5


def _phi(s):
    """exp(-1/s) for s > 0, 0 otherwise; evaluated without overflow warnings."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 1e-12
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    a, b = _phi(t), _phi(1.0 - t)
    return a / (a + b + 1e-300)


def _smooth_step_prime(t):
    t = np.asarray(t, dtype=float)
    a, b = _phi(t), _phi(1.0 - t)
    da = np.zeros_like(t)
    db = np.zeros_like(t)
    pos = t > 1e-12
    da[pos] = a[pos] / t[pos] ** 2
    neg = (1.0 - t) > 1e-12
    db[neg] = b[neg] / (1.0 - t[neg]) ** 2
    denom = (a + b + 1e-300) ** 2
    return (da * b + a * db) / denom


def localize(sys: FastSlowSystem, jet0, radius, tol=1e-8) -> FastSlowSystem:
    """Shift the critical sheet x = h0(y) to the origin and cut the remainder off.

    The returned system in xt = x - h0(y) is

        xt' = A(y) xt + chi(|xt|/radius) * R(xt, y),
        y'  = g(chi(|xt|/radius) * xt + h0(y), y),

    where A(y) is the exact fast linearization of the shifted field at xt = 0
    and R its remainder.  Inside |xt| <= radius/2 the flow coincides with the
    plain shifted system; beyond radius the remainder vanishes, so the
    remainder sup M0 is finite.

    jet0(y) returns the pair (h0(y), Dh0(y)) as arrays of shape (..., m) and
    (..., m, n).  The shift is the graph-coordinate transform that
    `straighten` uses, and every evaluation of the localized system (F, g,
    A0 or the joint field) reads jet0 once.  The sheet must be critical,
    max |F(h0(y), y)| <= tol on the grid nodes; a non-finite residual fails.
    """
    shifted, lin = _graph_transform(sys)
    nodes = sys.domain.node_coords()
    res = np.max(sys.norm_x(sys.eval_F(jet0(nodes)[0], nodes)))
    if not res <= tol:
        raise PreconditionError(
            f"h0 is not a critical sheet: max |F(h0(y),y)| = {res:.3e} > {tol:g}")
    radius = float(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def chi_of(xt):
        return chi(sys.norm_x(xt) / radius)[..., None]

    def F_cut(xt, y):
        # the localized F, the cutoff factor at xt and h0(y)
        hy, dhy = jet0(y)
        c = chi_of(xt)
        lin_xt = np.einsum("...ij,...j->...i", lin(y, hy, dhy), xt)
        return lin_xt + c * (shifted(xt, y, hy, dhy)[0] - lin_xt), c, hy

    def g_loc(xt, y):
        return sys.eval_g(chi_of(xt) * xt + jet0(y)[0], y)

    def Fg_loc(xt, y):
        xt = np.asarray(xt, dtype=float)
        F, c, hy = F_cut(xt, y)
        return np.concatenate([F, sys.eval_g(c * xt + hy, y)], axis=-1)

    return FastSlowSystem(m=sys.m, n=sys.n, F=lambda xt, y: F_cut(xt, y)[0], g=g_loc,
                          A0=lambda y: lin(y, *jet0(y)),
                          domain=sys.domain, norm_kind=sys.norm_kind, Fg=Fg_loc)
