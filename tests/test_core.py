"""Core domain types: norms, grids, grid functions, systems, localization."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_coupled, check_derivatives, sampled
from slowfast import integrate, manifold, systems
from slowfast.core import (FastSlowSystem, GridDomain, GridFunction, GridStack, chi, dchi,
                           localize, vector_norm)
from slowfast.errors import PreconditionError
from slowfast.integrate import IntegratorConfig, bounded_solution_batch, flow
from slowfast.manifold import eqv_residual
from slowfast.systems import (build_l1, build_l2, build_nf1, build_q1, build_vdp_cut,
                              build_vdp_raw, vdp_branch, _vdp_jet)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestFastState:
    """Norms of fast-space states, through `vector_norm`."""

    def test_norm_kinds(self):
        v = [3.0, -4.0]
        assert vector_norm(v) == pytest.approx(5.0)
        assert vector_norm(v, "sup") == pytest.approx(4.0)

    def test_norm_positive_definite(self):
        assert vector_norm([0.0, 0.0]) == 0.0
        assert vector_norm([1e-8, 0.0]) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(finite, min_size=3, max_size=3),
           st.lists(finite, min_size=3, max_size=3),
           st.sampled_from(["euclidean", "sup"]))
    def test_triangle_inequality(self, a, b, kind):
        a, b = np.array(a), np.array(b)
        na = vector_norm(a, kind)
        nb = vector_norm(b, kind)
        assert vector_norm(a + b, kind) <= na + nb + 1e-12 * (1 + na + nb)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            vector_norm([1.0], "taxicab")


class TestGridDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridDomain([0.0], [0.0], [5])
        with pytest.raises(ValueError):
            GridDomain([0.0], [1.0], [1])

    def test_nodes_and_spacing(self):
        dom = GridDomain([0.0, -1.0], [1.0, 1.0], [3, 5])
        assert dom.node_count == 15
        assert dom.spacing == pytest.approx([0.5, 0.5])
        nodes = dom.node_coords()
        assert nodes.shape == (15, 2)
        assert np.all(dom.contains(nodes))



def _loop_interp(gf, y):
    """Reference multilinear interpolation: all set-up per call, one pass per
    cell corner.  GridFunction.__call__ must match it byte for byte."""
    dom = gf.domain
    y = np.asarray(y, dtype=float)
    lead = y.shape[:-1]
    yf = y.reshape(-1, dom.n)
    t = (np.clip(np.asarray(yf, float), dom.lower, dom.upper) - dom.lower) / dom.spacing
    i0 = np.minimum(np.floor(t).astype(int), np.asarray(dom.shape) - 2)
    i0 = np.maximum(i0, 0)
    frac = t - i0
    strides = np.cumprod((dom.shape + (1,))[::-1])[::-1][1:]
    base = i0 @ strides
    flat = gf.values.reshape((dom.node_count,) + gf.value_shape)
    out = np.zeros((yf.shape[0],) + gf.value_shape)
    for corner in range(2 ** dom.n):
        offs = np.array([(corner >> a) & 1 for a in range(dom.n)])
        w = np.prod(np.where(offs, frac, 1.0 - frac), axis=-1)
        idx = base + offs @ strides
        out += w.reshape((-1,) + (1,) * len(gf.value_shape)) * flat[idx]
    return out.reshape(lead + gf.value_shape)


class TestGridFunction:
    def test_exact_on_nodes(self):
        dom = GridDomain([0.0, 0.0], [1.0, 2.0], [4, 5])
        gf = sampled(dom, lambda y: np.stack(
            [np.sin(y[:, 0] + y[:, 1]), y[:, 0] * y[:, 1]], axis=-1))
        nodes = dom.node_coords()
        exact = np.stack([np.sin(nodes[:, 0] + nodes[:, 1]),
                          nodes[:, 0] * nodes[:, 1]], axis=-1)
        assert np.allclose(gf(nodes), exact, atol=0, rtol=0)

    def test_interpolation_order_at_least_1p8(self):
        # C^2 target; sup interp error must shrink ~ 4x per refinement
        f = lambda y: np.cos(2.0 * y[:, 0])[:, None]
        probes = np.linspace(0.013, 0.99, 401)[:, None]
        errs = []
        for pts in (9, 17, 33):
            dom = GridDomain([0.0], [1.0], [pts])
            gf = sampled(dom, f)
            errs.append(np.max(np.abs(gf(probes) - f(probes))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)

    def test_sup_norm_is_node_max(self):
        dom = GridDomain([0.0], [1.0], [11])
        vals = np.zeros((11, 1))
        vals[4, 0] = -7.0
        gf = GridFunction(dom, vals)
        assert gf.sup_norm() == pytest.approx(7.0)

    def test_lipschitz_estimate_definition(self):
        dom = GridDomain([0.0], [1.0], [11])
        gf = sampled(dom, lambda y: 3.0 * y)
        assert gf.lipschitz_estimate() == pytest.approx(3.0)

    @pytest.mark.parametrize("kind", ["sup", "euclidean"])
    @pytest.mark.parametrize("m", [1, 7, 100])
    @pytest.mark.parametrize("shape", [(41,), (6, 5)], ids=["41-rows", "2d"])
    def test_value_norms_match_row_loop_bytes(self, kind, m, shape):
        # node_norms and lipschitz_estimate take value_norm on all rows in one
        # call; the norm of each row alone must give the same bits
        rng = np.random.default_rng(m)
        norm = lambda v: vector_norm(v, kind)
        n = len(shape)
        dom = GridDomain(np.zeros(n), np.linspace(1.0, 2.0, n), shape)
        gf = GridFunction(dom, rng.standard_normal(shape + (m,)), value_norm=norm)
        rows = gf.values.reshape(-1, m)
        want = np.asarray([norm(v) for v in rows])
        assert gf.node_norms().tobytes() == want.tobytes()
        best = 0.0
        for a in range(n):
            diffs = np.diff(gf.values, axis=a).reshape(-1, m)
            best = max(best, float(np.max([norm(v) for v in diffs])) / dom.spacing[a])
        assert np.float64(gf.lipschitz_estimate()).tobytes() == np.float64(best).tobytes()
        if kind == "euclidean":
            # the default flat norm is vector_norm's for 1-D values, bit for bit,
            # so a euclidean system may pass its norm_x as the value norm
            plain = GridFunction(dom, gf.values)
            assert plain.node_norms().tobytes() == gf.node_norms().tobytes()
            assert plain.lipschitz_estimate().hex() == gf.lipschitz_estimate().hex()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("value_shape", [(), (2,), (2, "n"), (2, "n", "n"),
                                             (17,), (64,)])   # summed in numpy
    def test_matches_loop_reference_bytes(self, n, value_shape):
        rng = np.random.default_rng(n)
        dom = GridDomain(np.linspace(-1.0, 0.0, n), np.linspace(0.5, 2.0, n),
                         [5, 4, 3][:n])
        vshape = tuple(n if d == "n" else d for d in value_shape)
        vals = rng.standard_normal(dom.shape + vshape)
        flat = vals.reshape(-1)
        flat[::3] = -0.0     # signed zeros, so -0.0 terms meet in the sums
        flat[1::7] = 0.0
        gf = GridFunction(dom, vals)
        box = np.stack([dom.lower - 0.5, dom.upper + 0.5])     # reaches outside
        inputs = [rng.uniform(box[0], box[1], size=(n,)),
                  rng.uniform(box[0], box[1], size=(7, n)),
                  rng.uniform(box[0], box[1], size=(3, 4, n)),
                  dom.node_coords(),
                  np.array([dom.lower - 3.0, dom.upper + 3.0, np.full(n, -0.0)])]
        for y in inputs:
            got, want = gf(y), _loop_interp(gf, y)
            assert got.shape == want.shape == y.shape[:-1] + vshape
            assert got.tobytes() == want.tobytes()
            # one slow state: the float path on one axis, the array path above
            for point in y.reshape(-1, n):
                got, want = gf(point), _loop_interp(gf, point)
                assert got.shape == want.shape == vshape
                assert got.tobytes() == want.tobytes()
                assert got.base is None           # no view keeping a second array alive

    def test_nan_input_gives_nan(self):
        dom = GridDomain([0.0, 0.0], [1.0, 2.0], [4, 5])
        gf = sampled(dom, lambda y: y)
        with np.errstate(invalid="ignore"):
            out = gf(np.array([[np.nan, 0.5], [0.5, 0.5]]))
            point = gf(np.array([0.5, np.nan]))
        assert np.all(np.isnan(out[0])) and np.all(np.isfinite(out[1]))
        assert point.shape == (2,) and np.all(np.isnan(point))
        # one-point +-inf is clamped to the box faces
        assert gf(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]
        assert gf(np.array([-np.inf, np.inf])).tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("value_shape", [(), (3,), (2, 1), (64,)])
    def test_nan_point_on_one_axis_gives_nan(self, value_shape):
        dom = GridDomain([0.0], [1.0], [5])
        gf = GridFunction(dom, np.ones((5,) + value_shape))
        with np.errstate(invalid="ignore"):
            got = gf(np.array([np.nan]))
        assert got.shape == value_shape and np.all(np.isnan(got))

    @pytest.mark.parametrize("n, value_shape", [(1, ()), (1, (3,)), (2, (2, 2)), (3, (1,))])
    @pytest.mark.parametrize("k", [1, 4])
    def test_stack_block_equals_its_function_bytes(self, n, value_shape, k):
        rng = np.random.default_rng(10 * n + k)
        dom = GridDomain(np.full(n, -1.0), np.full(n, 1.5), [6, 4, 3][:n])
        fns = [GridFunction(dom, rng.standard_normal(dom.shape + value_shape))
               for _ in range(k)]
        for lead in [(9,), (2, 5)]:
            y = rng.uniform(-1.5, 2.0, size=(k,) + lead + (n,))  # some points outside
            got = GridStack(fns)(y)
            assert got.shape == (k,) + lead + value_shape
            for j, f in enumerate(fns):
                assert got[j].tobytes() == f(y[j]).tobytes()

    def test_stack_of_functions_read_at_a_point_bytes(self):
        """Functions already read at one slow state (so holding their float
        rows) stack as before, and each still reads its own values."""
        rng = np.random.default_rng(4)
        dom = GridDomain([-1.0], [1.0], [7])
        fns = [GridFunction(dom, rng.standard_normal(dom.shape + (2,))) for _ in range(3)]
        point = np.array([0.3])
        before = [f(point).tobytes() for f in fns]
        y = rng.uniform(-1.2, 1.2, size=(3, 5, 1))
        got = GridStack(fns)(y)
        for j, f in enumerate(fns):
            assert got[j].tobytes() == f(y[j]).tobytes() == _loop_interp(f, y[j]).tobytes()
            assert f(point).tobytes() == before[j] == _loop_interp(f, point).tobytes()

    def test_stack_needs_one_grid_and_one_leading_block_per_function(self):
        dom = GridDomain([0.0], [1.0], [5])
        a, b = GridFunction.zeros(dom, (1,)), GridFunction.zeros(GridDomain([0.0], [2.0], [5]), (1,))
        with pytest.raises(ValueError, match="one grid"):
            GridStack([a, b])
        with pytest.raises(ValueError, match="one grid"):
            GridStack([a, GridFunction.zeros(dom, (2,))])
        with pytest.raises(ValueError, match="leading axis"):
            GridStack([a, a])(np.zeros((3, 4, 1)))

    def test_clamped_extension_preserves_bounds(self):
        dom = GridDomain([0.0], [1.0], [11])
        gf = sampled(dom, lambda y: y * y)
        assert gf(np.array([[2.5]]))[0, 0] == pytest.approx(1.0)
        assert gf(np.array([[-1.0]]))[0, 0] == pytest.approx(0.0)


class TestEvalR0:
    def test_l1_r0_is_y(self):
        sys = build_l1(eps=0.1)
        assert sys.R0([3.0], [0.5])[0] == pytest.approx(0.5)

    def test_q1_r0_independent_of_x(self):
        sys = build_q1(eps=0.1)
        for x in (0.0, 2.0, -3.0):
            assert sys.R0([x], [1.0])[0] == pytest.approx(1.0)

    def test_nf1_r0_at_zero_equals_f(self):
        sys = build_nf1(m=16, points=5)
        y = np.array([1.0])
        z = np.zeros(16)
        assert np.allclose(sys.R0(z, y), sys.eval_F(z, y), atol=1e-14)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("builder,kw", [
        (build_l1, {}), (build_q1, {}), (build_coupled, {"points": 21}),
        (build_nf1, {"m": 16, "points": 5}), (build_l2, {}),
    ])
    def test_fd_match(self, builder, kw):
        sys = builder(**kw)
        assert check_derivatives(sys, n_points=100, x_radius=0.8) <= 1e-5

    def test_vdp_cut_a0_consistent(self):
        sys = build_vdp_cut(eps=0.005)
        assert check_derivatives(sys, n_points=30, x_radius=0.04) <= 1e-5

    def test_dx_without_jacobian_is_central_difference(self):
        # VDP-cut supplies no DF or Dg: D_x F and D_x g are central differences in x
        sys = build_vdp_cut()
        x, y = np.array([[0.03], [-0.07]]), np.array([[-1.5], [-0.4]])
        for got, field in ((sys.DxF(x, y), sys.eval_F), (sys.Dxg(x, y), sys.eval_g)):
            h = 1e-6
            want = ((field(x + h, y) - field(x - h, y)) / (2 * h))[..., None]
            assert got.tobytes() == want.tobytes()


class TestCutoff:
    def test_bump_plateaus(self):
        assert chi(0.0) == pytest.approx(1.0)
        assert chi(0.4) == pytest.approx(1.0)
        assert chi(1.0) == pytest.approx(0.0)
        assert chi(3.0) == pytest.approx(0.0)
        r = np.linspace(0, 2, 200)
        assert np.all(np.diff(chi(r)) <= 1e-12)

    def test_dchi_matches_fd(self):
        r = np.linspace(0.05, 1.6, 40)
        h = 1e-6
        fd = (chi(r + h) - chi(r - h)) / (2 * h)
        assert np.max(np.abs(fd - dchi(r))) < 1e-5


def _reference_localize(sys, h0, radius, dh0):
    """localize as it was written before the shared graph-coordinate transform:
    separate closures that each evaluate h0 and Dh0.  The localized system must
    match it byte for byte."""
    m, n = sys.m, sys.n

    def H(y):
        return np.asarray(h0(y), dtype=float)

    def DH(y):
        y = np.asarray(y)
        return np.asarray(dh0(y), dtype=float).reshape(y.shape[:-1] + (m, n))

    def _cd(fn, u, h=1e-6):
        cols = []
        for i in range(u.shape[-1]):
            du = np.zeros_like(u)
            du[..., i] = h
            cols.append((np.asarray(fn(u + du)) - np.asarray(fn(u - du))) / (2 * h))
        return np.stack(cols, axis=-1)

    def shifted_F(xt, y):
        x = xt + H(y)
        gval = sys.eval_g(x, y)
        return sys.eval_F(x, y) - np.einsum("...ij,...j->...i", DH(y), gval)

    def A(y):
        h = H(y)
        dxF = (sys.DxF(h, y) if sys.DF is not None
               else _cd(lambda x: sys.eval_F(x, y), h))
        dxg = (sys.Dxg(h, y) if sys.Dg is not None
               else _cd(lambda x: sys.eval_g(x, y), h))
        return dxF - np.einsum("...ij,...jk->...ik", DH(y), dxg)

    def chi_of(xt):
        return chi(sys.norm_x(xt) / radius)

    def F_loc(xt, y):
        xt = np.asarray(xt, dtype=float)
        lin = np.einsum("...ij,...j->...i", A(y), xt)
        R = shifted_F(xt, y) - lin
        return lin + chi_of(xt)[..., None] * R

    def g_loc(xt, y):
        xt = np.asarray(xt, dtype=float)
        return sys.eval_g(chi_of(xt)[..., None] * xt + H(y), y)

    return FastSlowSystem(m=m, n=n, F=F_loc, g=g_loc, A0=A, domain=sys.domain,
                          norm_kind=sys.norm_kind)


def _zero_h(y):
    return np.zeros(np.asarray(y).shape[:-1] + (1,))


def _zero_dh(y):
    return np.zeros(np.asarray(y).shape[:-1] + (1, 1))


def _zero_jet(y):
    return _zero_h(y), _zero_dh(y)


class TestLocalize:
    def test_critical_point_preserved_when_g_zero(self):
        raw = build_vdp_raw(eps=0.0)
        loc = localize(raw, _vdp_jet, 0.1, tol=1e-10)
        ys = raw.domain.node_coords()
        vals = loc.eval_F(np.zeros((ys.shape[0], 1)), ys)
        assert np.max(np.abs(vals)) < 1e-10

    def test_shifted_value_matches_algebra(self):
        # F_loc(0, y) = F(h0,y) - Dh0 g(h0,y) when g is nonzero
        raw = build_vdp_raw(eps=0.005)
        loc = localize(raw, _vdp_jet, 0.1, tol=1e-10)
        y = np.array([-1.0])
        h0, dh0 = _vdp_jet(y)
        expected = raw.eval_F(h0, y) - dh0[..., 0] * raw.eval_g(h0, y)
        assert np.allclose(loc.eval_F(np.zeros(1), y), expected, atol=1e-12)

    def test_remainder_vanishes_beyond_cutoff(self):
        loc = build_vdp_cut(eps=0.005)
        ys = loc.domain.sample(np.random.default_rng(0), 20)
        for scale in (1.0, 1.5, 3.0):
            xt = np.full((20, 1), 0.1 * scale)
            r0 = loc.R0(xt, ys)
            assert np.max(np.abs(r0)) < 1e-12
        # finite remainder sup inside
        xs = np.random.default_rng(1).uniform(-0.1, 0.1, (200, 1))
        ys = loc.domain.sample(np.random.default_rng(2), 200)
        assert np.isfinite(np.max(np.abs(loc.R0(xs, ys))))

    def test_flow_matches_shifted_original_inside(self):
        eps = 0.005
        raw = build_vdp_raw(eps=eps)
        loc = localize(raw, _vdp_jet, 0.1, tol=1e-10)
        cfg = IntegratorConfig(dt=0.002)
        eta = np.array([-1.0])
        xt0 = np.array([0.03])            # inside radius/2
        p_loc = flow(loc, xt0, eta, (0.0, 5.0), cfg)
        x0 = xt0 + _vdp_jet(eta)[0]
        p_raw = flow(raw, x0, eta, (0.0, 5.0), cfg)
        xt_raw = p_raw.fast - _vdp_jet(p_raw.slow)[0]
        assert np.max(np.abs(p_loc.slow - p_raw.slow)) < 1e-8
        assert np.max(np.abs(p_loc.fast - xt_raw)) < 1e-8

    def test_localize_twice_idempotent_inside(self):
        raw = build_vdp_raw(eps=0.0)
        loc1 = localize(raw, _vdp_jet, 0.1, tol=1e-10)
        loc2 = localize(loc1, _zero_jet, 0.1, tol=1e-10)
        cfg = IntegratorConfig(dt=0.002)
        p1 = flow(loc1, [0.03], [-1.0], (0.0, 4.0), cfg)
        p2 = flow(loc2, [0.03], [-1.0], (0.0, 4.0), cfg)
        assert np.max(np.abs(p1.fast - p2.fast)) < 1e-9

    @pytest.mark.parametrize("no_df_base", [False, True], ids=["raw_base", "localized_base"])
    @pytest.mark.parametrize("lead", [(), (9,)], ids=["point", "batch"])
    def test_fields_match_reference_bytes(self, no_df_base, lead):
        # |xt| inside the inner radius (0.05), between the radii and beyond 0.1
        raw = build_vdp_raw(eps=0.005)
        base = localize(raw, _vdp_jet, 0.1, tol=1e-10)
        ref = _reference_localize(raw, lambda y: _vdp_jet(y)[0], 0.1,
                                  lambda y: _vdp_jet(y)[1])
        if no_df_base:
            # the localized base has no DF/Dg: A falls back to central differences
            base, ref = (localize(base, _zero_jet, 0.08, tol=0.1),
                         _reference_localize(ref, _zero_h, 0.08, _zero_dh))
        rng = np.random.default_rng(3)
        y = rng.uniform(-2.0, 0.0, lead + (1,))
        for r in (0.02, 0.07, 0.3):
            xt = r * rng.choice([-1.0, 1.0], lead + (1,))
            pairs = [(base.eval_F(xt, y), ref.eval_F(xt, y)),
                     (base.eval_g(xt, y), ref.eval_g(xt, y)),
                     (base.eval_Fg(xt, y), ref.eval_Fg(xt, y)),
                     (base.eval_A0(y), ref.eval_A0(y))]
            for got, want in pairs:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_newton_solves_per_evaluation(self, monkeypatch):
        # every localized evaluation reads the jet (h0, Dh0) once: one branch evaluation
        calls = []
        branch = systems.vdp_branch

        def counted(*args, **kwargs):
            calls.append(1)
            return branch(*args, **kwargs)

        monkeypatch.setattr(systems, "vdp_branch", counted)
        loc = build_vdp_cut()
        xt, y = np.full((5, 1), 0.03), np.linspace(-1.8, -0.2, 5)[:, None]
        counts = {}
        for name, call in (("eval_Fg", lambda: loc.eval_Fg(xt, y)),
                           ("eval_F", lambda: loc.eval_F(xt, y)),
                           ("eval_g", lambda: loc.eval_g(xt, y)),
                           ("eval_A0", lambda: loc.eval_A0(y))):
            calls.clear()
            call()
            counts[name] = len(calls)
        assert counts == {"eval_Fg": 1, "eval_F": 1, "eval_g": 1, "eval_A0": 1}

    @pytest.mark.parametrize("kernel", ["eqv_residual", "bounded_solution_batch"])
    def test_branch_evaluations_per_rk4_stage(self, monkeypatch, vdp, kernel):
        # each forward-field stage reads the jet for the fast field and for the
        # slow drift, no more: at most 2 branch evaluations
        sys, cert = vdp
        calls, per_stage = [], []
        branch, two_pass = systems.vdp_branch, integrate.two_pass

        def counted_branch(y):
            calls.append(1)
            return branch(y)

        def counted_two_pass(back_field, fwd_field, *args):
            def counted_field(t, u):
                calls.clear()
                out = fwd_field(t, u)
                per_stage.append(len(calls))
                return out
            return two_pass(back_field, counted_field, *args)

        monkeypatch.setattr(systems, "vdp_branch", counted_branch)
        monkeypatch.setattr(integrate, "two_pass", counted_two_pass)
        monkeypatch.setattr(manifold, "two_pass", counted_two_pass)
        grid = GridDomain([-2.0], [0.0], [5])
        zero, cfg = GridFunction.zeros(grid, (1,)), IntegratorConfig(dt=0.1)
        if kernel == "eqv_residual":
            eqv_residual(sys, zero, cert, cfg)
        else:
            bounded_solution_batch(sys, zero, grid.node_coords(), 1.0, cfg)
        assert per_stage and max(per_stage) <= 2

    def test_bad_sheet_rejected(self):
        raw = build_vdp_raw(eps=0.005)
        with pytest.raises(PreconditionError):
            localize(raw, lambda y: (np.full(np.asarray(y).shape[:-1] + (1,), 5.0),
                                     _zero_dh(y)), 0.1)


def _newton_branch(y):
    """The outer branch by Newton continuation from x = 2, the closed form's reference."""
    x = np.full(y.shape, 2.0)
    for _ in range(60):
        step = (x - x ** 3 / 3.0 - y) / (1.0 - x * x)
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return x


class TestVdpBranch:
    def test_solves_the_cubic_up_to_the_fold(self):
        # the seam of the two closed forms, a = -3y/2 = 1, is at y = -2/3
        seam = -2.0 / 3.0
        y = np.concatenate([np.linspace(-2.2, 2.0 / 3.0, 20001),
                            [np.nextafter(seam, -1.0), seam, np.nextafter(seam, 0.0)]])
        x = vdp_branch(y)
        assert np.max(np.abs(x - x ** 3 / 3.0 - y)) <= 1e-14
        assert np.all(x >= 1.0)

    def test_matches_newton_reference(self):
        y = np.linspace(-2.2, 0.2, 20001)
        assert np.max(np.abs(vdp_branch(y) - _newton_branch(y))) <= 4.5e-16

    def test_no_branch_past_the_fold(self):
        # for y > 2/3 no root has x >= 1: NaN, and the sheet check rejects it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isnan(vdp_branch([0.7, 1.0])))
            with pytest.raises(PreconditionError):
                build_vdp_cut(domain=(-2.0, 1.0))


def test_n_zero_rejected():
    with pytest.raises(ValueError):
        FastSlowSystem(m=1, n=0, F=lambda x, y: -x, g=lambda x, y: y,
                       A0=lambda y: -np.eye(1), domain=GridDomain([0.0], [1.0], [2]))


def test_per_point_callables_rejected():
    # there is no per-point mode to ask for: callables must broadcast
    sys = build_q1()
    with pytest.raises(TypeError, match="vectorized"):
        FastSlowSystem(m=1, n=1, F=sys.F, g=sys.g, A0=sys.A0, domain=sys.domain,
                       vectorized=False)


def test_boundary_flag_drift_vanishes_on_boundary():
    sys = build_coupled()
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, (20, 1))
    for edge in (sys.domain.lower, sys.domain.upper):
        ys = np.broadcast_to(edge, (20, 1)).copy()
        assert np.max(np.abs(sys.eval_g(xs, ys))) <= 1e-12
