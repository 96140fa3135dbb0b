"""Reference-scheme tests for the shared integrator core.

Each reference below is a plain per-step loop that spells out one scheme
(RK4 and the Stratonovich Heun step on (x, p, J), whose (x, p) part is the
plain phase-space flow, the RK4 field steps of the density-manifold flow and
the bridge, the Strang split step of the stochastic NLS, the per-level
loop of the phase-flow strong-order study, the per-path loop of the
density-flow study, the per-replication loop of
the second-order kinetic residual, the per-sample loops of the residual
diagnostics and the per-node Madelung phase unwrap) with its own
stage arithmetic and cell-by-cell marching.  The integrators must agree with them bitwise, which is tighter
than any tolerance-based check.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wzflow import bridge, density, fields, noise, phase, snls, studies, vlasov
from wzflow.errors import ConfigurationError, EvaluationError, StabilityError
from wzflow.fields import DensityField, GridSpec, PotentialField, gradient
from wzflow.phase import HamiltonianSpec, PhaseState, scalar_potential


def pendulum(domain="euclidean", eta=0.8):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds,
                           d2sigma=d2s, eta=eta, domain=domain)


def factor(slope, shape):
    """Per-path noise broadcast against a batched state (scalar for d_B = 1)."""
    slope = np.asarray(slope)
    if slope.size == 1:
        return float(slope.reshape(-1)[0])
    return slope.reshape(slope.shape + (1,) * (len(shape) - slope.ndim))


def field(spec, x, p, xi):
    """The drift at slope xi. A flat spec (gtilde = None) moves x at p and
    skips the noise force at a float slope of 0.0; gtilde = I goes through
    the Hamiltonian's gradients."""
    if spec.tilde_metric is None:
        if isinstance(xi, float) and xi == 0.0:
            return p, -spec.df(x)
        return p, -(spec.df(x) + spec.eta * spec.dsigma(x) * xi)
    dx = spec.grad_p_h0(x, p) + spec.grad_p_h1(x, p) * xi
    dp = -(spec.grad_x_h0(x, p) + spec.grad_x_h1(x, p) * xi)
    return dx, dp


def tangent(spec, x, p, xi, J):
    d = spec.dim
    xi = np.expand_dims(xi, -1) if np.ndim(xi) else xi
    hxx = spec.d2f(x) + xi * spec.eta * spec.d2sigma(x)
    kin = 1.0 + (xi * spec.eta if spec.tilde_metric is not None else 0.0)
    dJx = kin * J[..., d:, :]
    dJp = -np.einsum("...ik,...kj->...ij", hxx, J[..., :d, :])
    return np.concatenate([dJx, dJp], axis=-2)


def ref_rk4_flow(spec, x, p, mesh, sub, jacobian=True):
    """RK4 on (x, p, J), sub substeps per noise cell, cell by cell; without
    ``jacobian`` on (x, p) alone, and js is None."""
    h = mesh.delta / sub
    x = spec.wrap(np.array(x, dtype=float))
    p = np.array(p, dtype=float)
    J = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    xs, ps, js = [x], [p], [J]
    for k in range(mesh.n_cells):
        xi = factor(mesh.cell_derivative(k), x.shape)
        for _ in range(sub):
            k1x, k1p = field(spec, x, p, xi)
            x2, p2 = x + 0.5 * h * k1x, p + 0.5 * h * k1p
            k2x, k2p = field(spec, x2, p2, xi)
            x3, p3 = x + 0.5 * h * k2x, p + 0.5 * h * k2p
            k3x, k3p = field(spec, x3, p3, xi)
            x4, p4 = x + h * k3x, p + h * k3p
            k4x, k4p = field(spec, x4, p4, xi)
            if jacobian:
                k1J = tangent(spec, x, p, xi, J)
                k2J = tangent(spec, x2, p2, xi, J + 0.5 * h * k1J)
                k3J = tangent(spec, x3, p3, xi, J + 0.5 * h * k2J)
                k4J = tangent(spec, x4, p4, xi, J + h * k3J)
                J = J + h / 6.0 * (k1J + 2 * k2J + 2 * k3J + k4J)
            x = spec.wrap(x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x))
            p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            xs.append(x)
            ps.append(p)
            js.append(J)
    return np.array(xs), np.array(ps), np.array(js) if jacobian else None


def ref_heun_flow(spec, x, p, path, dt, jacobian=True):
    """Stratonovich Heun on (x, p, J) with the path's increments; the noise
    of a flat spec does not move x. Without ``jacobian`` on (x, p) alone,
    and js is None."""
    level = int(round(np.log2(path.T / dt)))
    incs = np.diff(path.at_level(level), axis=0)
    x = spec.wrap(np.array(x, dtype=float))
    p = np.array(p, dtype=float)
    J = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    xs, ps, js = [x], [p], [J]
    flat = spec.tilde_metric is None
    for inc in incs:
        db, dbJ = factor(inc, x.shape), factor(inc, J.shape)
        ax, ap = field(spec, x, p, 0.0)
        bx, bp = spec.grad_p_h1(x, p), -spec.grad_x_h1(x, p)
        x1 = x + dt * ax if flat else x + dt * ax + bx * db
        p1 = p + dt * ap + bp * db
        ax2, ap2 = field(spec, x1, p1, 0.0)
        bx2, bp2 = spec.grad_p_h1(x1, p1), -spec.grad_x_h1(x1, p1)
        if jacobian:
            aJ = tangent(spec, x, p, 0.0, J)
            bJ = tangent(spec, x, p, 1.0, J) - tangent(spec, x, p, 0.0, J)
            J1 = J + dt * aJ + bJ * dbJ
            aJ2 = tangent(spec, x1, p1, 0.0, J1)
            bJ2 = tangent(spec, x1, p1, 1.0, J1) - tangent(spec, x1, p1, 0.0, J1)
            J = J + 0.5 * dt * (aJ + aJ2) + 0.5 * (bJ + bJ2) * dbJ
        x = x + 0.5 * dt * (ax + ax2)
        x = spec.wrap(x if flat else x + 0.5 * (bx + bx2) * db)
        p = p + 0.5 * dt * (ap + ap2) + 0.5 * (bp + bp2) * db
        xs.append(x)
        ps.append(p)
        js.append(J)
    return np.array(xs), np.array(ps), np.array(js) if jacobian else None


# (batch M, noise components d_B): single path, shared noise, per-path noise
BATCHES = [(1, 1), (5, 1), (5, 5)]


def initial(M):
    if M == 1:
        return [0.3], [0.7]
    return np.linspace(0.2, 6.0, M)[:, None], np.linspace(-1.0, 1.5, M)[:, None]


@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("M,d_B", BATCHES)
@pytest.mark.parametrize("sub", [3, 4])
def test_wz_drivers_match_reference(domain, M, d_B, sub):
    spec = pendulum(domain)
    x0, p0 = initial(M)
    path = noise.sample_brownian(seed=11, T=1.0, level=7, d_B=d_B)
    mesh = noise.WongZakaiMesh(path, 2.0 ** -3)
    xs, ps, js = ref_rk4_flow(spec, x0, p0, mesh, sub)
    plain = phase.wz_flow(spec, PhaseState(x0, p0), mesh, substeps_per_cell=sub)
    var = phase.variational_flow(spec, PhaseState(x0, p0), mesh, substeps_per_cell=sub)
    for result in (plain, var):
        assert result.status == "completed"
        assert np.array_equal(result.times, np.linspace(0.0, 1.0, mesh.n_cells * sub + 1))
        assert np.array_equal(result.xs, xs)
        assert np.array_equal(result.ps, ps)
    assert np.array_equal(var.jacobians, js)


@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("M,d_B", BATCHES)
def test_heun_drivers_match_reference(domain, M, d_B):
    spec = pendulum(domain)
    x0, p0 = initial(M)
    path = noise.sample_brownian(seed=12, T=1.0, level=7, d_B=d_B)
    dt = 2.0 ** -6
    xs, ps, js = ref_heun_flow(spec, x0, p0, path, dt)
    plain = phase.strat_flow(spec, PhaseState(x0, p0), path, dt=dt)
    var = phase.variational_flow(spec, PhaseState(x0, p0), path, dt=dt)
    for result in (plain, var):
        assert result.status == "completed"
        assert np.array_equal(result.xs, xs)
        assert np.array_equal(result.ps, ps)
    assert np.array_equal(var.jacobians, js)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(2, 6), sub=st.integers(1, 5),
       domain=st.sampled_from(["euclidean", "torus"]))
def test_batched_wz_flow_row_is_single_run(seed, M, sub, domain):
    spec = pendulum(domain)
    x0, p0 = initial(M)
    path = noise.sample_brownian(seed=seed, T=1.0, level=5, d_B=M)
    mesh = noise.WongZakaiMesh(path, 2.0 ** -3)
    batched = phase.wz_flow(spec, PhaseState(x0, p0), mesh, substeps_per_cell=sub)
    for i in range(M):
        one = noise.BrownianPath(T=path.T, level=path.level, seed=path.seed, d_B=1,
                                 values=path.values[:, i:i + 1])
        single = phase.wz_flow(spec, PhaseState(x0[i], p0[i]),
                               noise.WongZakaiMesh(one, mesh.delta), substeps_per_cell=sub)
        for a, b in [(batched.xs, single.xs), (batched.ps, single.ps),
                     (batched.h0, single.h0), (batched.h1, single.h1)]:
            assert np.array_equal(a[:, i], b)


# ---------------------------------------------------------------------------
# strong-order study: one reference RK4 loop per delta level, sup over its own substeps

def ref_phase_errors(spec, state0, reference, deltas, M, T, dt, seed, sub):
    """Per-path sup errors and failure census of the phase-flow study: the
    reference Heun loop (or the exact solution) and one reference RK4 loop
    per delta level, each stopping at its first non-finite state as the
    flows do."""
    deltas = sorted(deltas, reverse=True)
    x0 = np.broadcast_to(state0.x, (M,) + state0.x.shape).copy()
    p0 = np.broadcast_to(state0.p, (M,) + state0.p.shape).copy()
    ref_bits = noise.dyadic_level(T, dt) if reference == "strat" else 0
    level = max(noise.dyadic_level(T, deltas[-1]) + noise.dyadic_level(sub, 1), ref_bits)
    path = noise.sample_brownian(seed=seed, T=T, level=level, d_B=M)
    if reference == "strat":
        ref_x, ref_p, _ = ref_heun_flow(spec, x0, p0, path, dt, jacobian=False)
    else:
        nodes = path.at_level(level)
        ref_x, ref_p = None, p0[None, :, :] - spec.eta * nodes[:, :, None]
    ref_dt = T / (ref_p.shape[0] - 1)
    errors = np.full((M, len(deltas)), np.nan)
    census = {}
    for j, d in enumerate(deltas):
        mesh = noise.WongZakaiMesh(path, d)
        xs, ps, _ = ref_rk4_flow(spec, x0, p0, mesh, sub, jacobian=False)
        times = np.linspace(0.0, T, len(xs))
        finite = [np.isfinite(x).all() and np.isfinite(p).all() for x, p in zip(xs, ps)]
        if not all(finite):
            census[d] = f"all paths: nonfinite({times[finite.index(False)]:.6g})"
            continue
        ii = np.rint(times / ref_dt).astype(int)
        dp = ps - ref_p[ii]
        if ref_x is None:
            dist = np.sqrt(np.sum(dp ** 2, axis=-1))
        else:
            dx = xs - ref_x[ii]
            if spec.domain == "torus":
                dx = np.mod(dx + spec.period / 2, spec.period) - spec.period / 2
            dist = np.sqrt(np.sum(dx ** 2 + dp ** 2, axis=-1))
        errors[:, j] = np.max(dist, axis=0)
    return np.array(deltas), errors, census


def additive(domain="euclidean", df=None):
    s, ds, d2s = scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
    extra = {} if df is None else {"df": df}
    return HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=0.7, domain=domain,
                           **extra)


@pytest.mark.parametrize("reference", ["strat", "exact_additive"])
@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("sub", [2, 4, 8])
@pytest.mark.parametrize("M", [1, 5])
def test_phase_study_matches_per_level_loop(reference, domain, sub, M):
    spec = pendulum(domain) if reference == "strat" else additive(domain)
    state0 = PhaseState([0.3], [0.7])
    payload = {"spec": spec, "state0": state0, "reference": reference}
    deltas = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4]
    used, errors, census = studies._per_path_errors(
        "phase_flow", payload, deltas, M, 1.0, 2.0 ** -7, 3, sub)
    want = ref_phase_errors(spec, state0, reference, deltas, M, 1.0, 2.0 ** -7, 3, sub)
    assert_same(used, want[0])
    assert_same(errors, want[1])
    assert census == want[2] == {}


@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("reference", ["strat", "exact_additive"])
@pytest.mark.parametrize("kappa", [0, 1])
def test_phase_study_matches_per_level_loop_with_kinetic_noise_and_signed_zeros(
        kappa, reference, domain):
    # the quadratic sigma's dsigma(x) = x carries the signed zeros of X0
    (f, df, _), (s, ds, _) = (scalar_potential(*c) for c in SCALARS["quadratic"])
    if reference == "strat":
        spec = HamiltonianSpec(dim=1, f=f, df=df, sigma=s, dsigma=ds, eta=0.8, domain=domain)
    else:
        spec = additive(domain)
    spec.tilde_metric = phase.IdentityMetric() if kappa else None
    deltas = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4]
    for x0, p0 in [([0.3], [0.7])] + list(zip(X0, P0)):
        state0 = PhaseState(x0, p0)
        payload = {"spec": spec, "state0": state0, "reference": reference}
        used, errors, census = studies._per_path_errors(
            "phase_flow", payload, deltas, 3, 1.0, 2.0 ** -7, 5, 2)
        want = ref_phase_errors(spec, state0, reference, deltas, 3, 1.0, 2.0 ** -7, 5, 2)
        assert_same(used, want[0])
        assert_same(errors, want[1])
        assert census == want[2] == {}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_census_matches_per_level_loop():
    # an infinite force beyond x = 0.357: on seed 0 the paths of the finest and
    # the two coarsest levels cross it, the two levels between never do
    wall = lambda x: np.where(x > 0.357, np.inf, 0.0)
    spec = additive(df=wall)
    state0 = PhaseState([0.0], [0.0])
    payload = {"spec": spec, "state0": state0, "reference": "exact_additive"}
    deltas = [2.0 ** -k for k in range(1, 6)]
    used, errors, census = studies._per_path_errors(
        "phase_flow", payload, deltas, 3, 1.0, 2.0 ** -8, 0, 2)
    _, want, want_census = ref_phase_errors(spec, state0, "exact_additive", deltas, 3, 1.0,
                                            2.0 ** -8, 0, 2)
    assert list(census.items()) == list(want_census.items())
    assert sorted(census) == [2.0 ** -5, 2.0 ** -2, 2.0 ** -1]
    assert np.array_equal(np.isnan(errors).all(axis=0), [True, True, False, False, True])
    assert np.array_equal(errors, want, equal_nan=True)
    assert np.isfinite(errors[:, 2:4]).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_parks_a_stopped_level_at_rest(monkeypatch):
    # the wall of the census test: once a level stops, its rows must rest at
    # the start, so every later RK4 step returns them unchanged
    steps = []
    make = studies._rk4_step

    def recording(spec):
        rk4 = make(spec)

        def step(xi, h, half, sixth, x, p):
            out = rk4(xi, h, half, sixth, x, p)
            steps.append((h[:, 0] == 0.0, x.copy(), p.copy(), *out))  # x, p are views
            return out

        return step

    monkeypatch.setattr(studies, "_rk4_step", recording)
    spec = additive(df=lambda x: np.where(x > 0.357, np.inf, 0.0))
    payload = {"spec": spec, "state0": PhaseState([0.0], [0.0]), "reference": "exact_additive"}
    _, _, census = studies._per_path_errors(
        "phase_flow", payload, [2.0 ** -k for k in range(1, 6)], 3, 1.0, 2.0 ** -8, 0, 2)
    assert len(census) == 3
    parked = [(x[r], p[r], x_new[r], p_new[r]) for r, x, p, x_new, p_new in steps if r.any()]
    assert parked
    for x, p, x_new, p_new in parked:
        assert np.array_equal(x_new, x) and np.array_equal(p_new, p)
        assert not x.any() and not p.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_reference_failure_reports_strat_flow_status():
    # an infinite force beyond x = 1: the Heun reference of seed 0 crosses it
    # between cell boundaries, and the study stops with its status
    spec = pendulum()
    spec.df = scalar_potential(np.cos, lambda x: np.where(x > 1.0, np.inf, -np.sin(x)))[1]
    M, dt = 3, 2.0 ** -8
    batched = PhaseState(np.full((M, 1), 0.3), np.full((M, 1), 0.7))
    path = noise.sample_brownian(seed=0, T=1.0, level=8, d_B=M)
    status = phase.strat_flow(spec, batched, path, dt=dt).status
    assert status.startswith("nonfinite(")
    payload = {"spec": spec, "state0": PhaseState([0.3], [0.7]), "reference": "strat"}
    with pytest.raises(EvaluationError) as e:
        studies._per_path_errors("phase_flow", payload, [2.0 ** -k for k in range(1, 5)],
                                 M, 1.0, dt, 0, 2)
    assert str(e.value) == "reference integration failed: " + status


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_overflowed_distance_is_not_a_failure():
    # a huge finite force: every state stays finite, but the levels' momenta
    # drift so far from the force-free exact reference that the squared
    # distance overflows to inf
    spec = additive(df=lambda x: np.full_like(x, -1e200))
    state0 = PhaseState([0.0], [0.0])
    payload = {"spec": spec, "state0": state0, "reference": "exact_additive"}
    deltas = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4]
    used, errors, census = studies._per_path_errors(
        "phase_flow", payload, deltas, 3, 1.0, 2.0 ** -7, 1, 2)
    _, want, want_census = ref_phase_errors(spec, state0, "exact_additive", deltas, 3, 1.0,
                                            2.0 ** -7, 1, 2)
    assert census == want_census == {}
    assert np.isposinf(errors).all()
    assert np.array_equal(errors, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_exact_reference_checks_x():
    # p0 near the float64 limit: RK4's stage sum for x overflows at the first
    # step while p stays finite and equal to the exact reference's, so the
    # distance (no x term) stays finite and only x shows the failure
    spec = additive()
    state0 = PhaseState([0.0], [1e308])
    payload = {"spec": spec, "state0": state0, "reference": "exact_additive"}
    deltas = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4]
    used, errors, census = studies._per_path_errors(
        "phase_flow", payload, deltas, 3, 1.0, 2.0 ** -7, 4, 2)
    _, want, want_census = ref_phase_errors(spec, state0, "exact_additive", deltas, 3, 1.0,
                                            2.0 ** -7, 4, 2)
    assert list(census.items()) == list(want_census.items())
    assert sorted(census) == sorted(deltas)
    assert np.array_equal(errors, want, equal_nan=True) and np.isnan(errors).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_study_reference_and_level_fail_on_the_same_step():
    # a wall just past x0 that the Heun predictor and the finest level's RK4
    # stages both cross in their first step: the reference failure is reported
    spec = pendulum()
    spec.df = scalar_potential(np.cos, lambda x: np.where(x > 0.31, np.inf, -np.sin(x)))[1]
    M, dt, sub = 3, 2.0 ** -8, 2
    deltas = [2.0 ** -k for k in range(5, 8)]  # the finest level steps with the reference
    batched = PhaseState(np.full((M, 1), 0.3), np.full((M, 1), 4.0))
    path = noise.sample_brownian(seed=0, T=1.0, level=8, d_B=M)
    status = phase.strat_flow(spec, batched, path, dt=dt).status
    finest = phase.wz_flow(spec, batched, noise.WongZakaiMesh(path, deltas[-1]), sub).status
    assert status == finest == f"nonfinite({dt:.6g})"
    payload = {"spec": spec, "state0": PhaseState([0.3], [4.0]), "reference": "strat"}
    with pytest.raises(EvaluationError) as e:
        studies._per_path_errors("phase_flow", payload, deltas, M, 1.0, dt, 0, sub)
    assert str(e.value) == "reference integration failed: " + status


# ---------------------------------------------------------------------------
# second-order kinetic residual: one strat_flow per replication, one
# bootstrap draw at a time

def ref_battery(battery, x, p):
    """value, dx, dp and dpp of every test function at the particles, each
    of shape (len(battery),) + x.shape, from the ``TestFunction`` methods."""
    return [np.array([getattr(phi, name)(x, p) for phi in battery])
            for name in ("value", "dx", "dp", "dpp")]


def ref_second_order(spec, ensemble0, n_rep, dt, times, seed, include_hessian, n_bootstrap):
    """Every key of weak_residual_second_order from a per-replication
    strat_flow loop and a per-draw bootstrap loop."""
    battery = vlasov.default_battery(spec.period)
    times = np.asarray(times, dtype=float)
    level = noise.dyadic_level(times[-1], dt)
    obs = np.empty((n_rep, len(battery), len(times)))
    drf = np.empty_like(obs)
    states = []  # states[r][j]: replication r's (x, p) at sample time j
    for r in range(n_rep):
        path = noise.sample_brownian(seed=seed + r, T=times[-1], level=level)
        flow = phase.strat_flow(spec, PhaseState(ensemble0.x, ensemble0.p), path, dt=dt)
        assert flow.status == "completed"
        states.append([(flow.xs[i], flow.ps[i])
                       for i in (round(t / dt) for t in times)])
    for j in range(len(times)):
        # the methods act elementwise, so one call on the (R, N) stack covers
        # every replication
        xs, ps = (np.stack([s[j][k][:, 0] for s in states]) for k in (0, 1))
        battery_at = ref_battery(battery, xs, ps)
        for r in range(n_rep):
            x, p = states[r][j]
            val, dx, dp, dpp = (a[:, r] for a in battery_at)
            drift = dx * spec.grad_p_h0(x, p)[:, 0] - dp * spec.grad_x_h0(x, p)[:, 0]
            if include_hessian:
                drift = drift + 0.5 * spec.eta ** 2 * spec.dsigma(x)[:, 0] ** 2 * dpp
            obs[r, :, j] = val.mean(axis=1)
            drf[r, :, j] = drift.mean(axis=1)

    def residual_of(idx):
        a, d = obs[idx].mean(axis=0), drf[idx].mean(axis=0)
        lhs = (a[:, 2:] - a[:, :-2]) / (2 * (times[1] - times[0]))
        return lhs, lhs - d[:, 1:-1]

    lhs, res = residual_of(np.arange(n_rep))
    rng = np.random.default_rng(seed ^ 0x5EED)
    boots = np.empty((n_bootstrap,) + res.shape)
    for b in range(n_bootstrap):
        boots[b] = residual_of(rng.integers(0, n_rep, n_rep))[1]
    mean_boots = boots.mean(axis=2)
    return {
        "labels": [phi.label for phi in battery],
        "times": times[1:-1],
        "lhs": lhs,
        "rhs": lhs - res,
        "residual": res,
        "ci_low": np.quantile(boots, 0.025, axis=0),
        "ci_high": np.quantile(boots, 0.975, axis=0),
        "mean_residual": res.mean(axis=1),
        "mean_ci_low": np.quantile(mean_boots, 0.025, axis=0),
        "mean_ci_high": np.quantile(mean_boots, 0.975, axis=0),
    }


@pytest.mark.parametrize("hessian", [True, False])
@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("N,R,times,n_bootstrap", [
    (1, 30, np.linspace(0.0, 0.5, 5), 150),       # one particle
    (40, 31, np.linspace(0.0, 0.5, 5), 250),      # odd R, a partial last chunk
    (40, 30, np.linspace(0.125, 0.5, 4), 100),    # no sample at t = 0
])
def test_second_order_matches_per_replication_loop(hessian, domain, N, R, times, n_bootstrap,
                                                   monkeypatch):
    monkeypatch.setattr(vlasov, "N_BOOTSTRAP", n_bootstrap)
    spec = pendulum(domain, eta=0.7)
    rng = np.random.default_rng(N + R)
    e0 = vlasov.PhaseEnsemble(rng.normal(0, 1.0, (N, 1)), rng.normal(0, 0.7, (N, 1)))
    dt = 2.0 ** -5
    out = vlasov.weak_residual_second_order(spec, e0, R, dt, times, seed=17,
                                            include_hessian_term=hessian)
    want = ref_second_order(spec, e0, R, dt, times, 17, hessian, n_bootstrap)
    assert out.keys() == want.keys()
    assert out["labels"] == want["labels"]
    for key in sorted(set(want) - {"labels"}):
        assert np.array_equal(out[key], want[key]), key
        assert np.array_equal(np.signbit(out[key]), np.signbit(want[key])), key


@pytest.mark.parametrize("hessian", [True, False])
def test_second_order_blocks_match_per_replication_loop(hessian, monkeypatch):
    """Blocks of one replication, of one, of two with a partial last block
    (R = 31), and one block for every replication observe alike."""
    spec = pendulum(eta=0.7)
    N, R, times, dt = 40, 31, np.linspace(0.0, 0.5, 5), 2.0 ** -5
    rng = np.random.default_rng(5)
    e0 = vlasov.PhaseEnsemble(rng.normal(0, 1.0, (N, 1)), rng.normal(0, 0.7, (N, 1)))
    want = ref_second_order(spec, e0, R, dt, times, 17, hessian, 100)
    monkeypatch.setattr(vlasov, "N_BOOTSTRAP", 100)
    for rows in (1, N, 3 * N - 1, 10 ** 6):
        monkeypatch.setattr(vlasov, "OBSERVE_ROWS", rows)
        out = vlasov.weak_residual_second_order(spec, e0, R, dt, times, seed=17,
                                                include_hessian_term=hessian)
        assert out.keys() == want.keys()
        assert out["labels"] == want["labels"]
        for key in sorted(set(want) - {"labels"}):
            assert np.array_equal(out[key], want[key]), (rows, key)
            assert np.array_equal(np.signbit(out[key]), np.signbit(want[key])), (rows, key)


# ---------------------------------------------------------------------------
# field flows: RK4 on (rho, Phi) with clipping and mass renormalization

def ref_field_march(rhs, rho, phi, mesh, per_cell, dt, t_end, floor, dt_max_of):
    """The t_end / dt RK4 field steps to t_end, per_cell per noise cell, at
    the step times of the phase march, np.linspace(0, T, n_cells * per_cell + 1)."""
    grid = rho.grid
    r, s = rho.values, phi.values
    n = round(t_end / dt)
    times = np.linspace(0.0, mesh.base.T, mesh.n_cells * per_cell + 1)[:n + 1]
    rs, ss, dts = [r], [s], []
    for k in range(mesh.n_cells):
        xi = float(mesh.cell_derivative(k).reshape(-1)[0])
        for _ in range(per_cell):
            if len(rs) > n:
                return times, rs, ss, dts
            dts.append(dt_max_of(r, s, xi))
            k1 = rhs(xi, r, s)
            k2 = rhs(xi, r + 0.5 * dt * k1[0], s + 0.5 * dt * k1[1])
            k3 = rhs(xi, r + 0.5 * dt * k2[0], s + 0.5 * dt * k2[1])
            k4 = rhs(xi, r + dt * k3[0], s + dt * k3[1])
            r_new = r + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            s_new = s + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            r_new = np.maximum(r_new, floor)
            r = r_new / grid.integrate(r_new)
            s = s_new - s_new.mean()
            rs.append(r)
            ss.append(s)
    return times, rs, ss, dts


def smooth_fields(n=32):
    g = GridSpec(1, n, 2 * np.pi)
    x = g.axis()
    return (g, DensityField.normalized(g, 1.0 + 0.2 * np.cos(x)),
            PotentialField.projected(g, 0.05 * np.sin(x)))


def off_the_step_grid(t_end, dt):
    return t_end is not None and abs(round(t_end / dt) * dt - t_end) > 1e-9


# t_end = 0.3 is off the step grid of 2**-5: the march rejects it before its first step
@pytest.mark.parametrize("sub,t_end", [(4, None), (3, 0.25), (4, 0.3)])
def test_whf_evolve_matches_reference(sub, t_end):
    g, rho0, phi0 = smooth_fields()
    x = g.axis()
    wspec = density.WhfSpec(
        free_energy=density.Functional(potential=np.cos(x), fisher_coeff=0.01),
        noise_energy=density.Functional(potential=np.sin(x)),
        eta=0.5,
    )
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=5, T=0.5, level=6), 2.0 ** -3)
    dt = mesh.delta / sub

    def dt_max_of(r, s, xi):
        speed = float(np.max(np.abs(gradient(g, s))))
        return density.CFL * g.h / max(abs(1.0 + wspec.eta * xi) * speed, 1e-12)

    if off_the_step_grid(t_end, dt):
        with pytest.raises(ConfigurationError, match="not a multiple"):
            density.whf_evolve(rho0, phi0, mesh, wspec, sub, t_end)
        return
    rhs = lambda xi, r, s: density._whf_rhs(g, wspec, xi, r, gradient(g, s))
    times, rs, ss, dts = ref_field_march(
        rhs, rho0, phi0, mesh, sub, dt, 0.5 if t_end is None else t_end,
        density.RHO_FLOOR, dt_max_of,
    )
    traj = density.whf_evolve(rho0, phi0, mesh, wspec, sub, t_end)
    assert np.array_equal(traj.times, times)
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.rhos, rs))
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.phis, ss))
    assert [rep["dt_max"] for rep in traj.reports[1:]] == dts
    assert len(traj.rhos) == len(rs) == len(traj.reports)


# T = 0.3 is off the step grid of 2**-6: the march rejects it before its first step
@pytest.mark.parametrize("T,dt", [(0.5, 2.0 ** -7), (0.3125, 2.0 ** -6), (0.3, 2.0 ** -6)])
def test_bridge_flow_matches_reference(T, dt):
    g, rho0, phi0 = smooth_fields()
    a = lambda y: 0.3 + 0.1 * np.cos(y)
    da = lambda y: -0.1 * np.sin(y)
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=6, T=0.5, level=7), 2.0 ** -4)
    spec = bridge.BridgeSpec(g, a, da, mesh, rho0, phi0)
    a_vals, da_vals = a(g.axis()), da(g.axis())
    k_band = 2 * np.pi * (g.n // 4) / g.period

    def dt_max_of(r, s, xi):
        speed = float(np.max(np.abs(gradient(g, s) + a_vals * xi)))
        return density.CFL * min(g.h / max(speed, 1e-12), 2.8 / max(0.5 * k_band ** 2, 1e-12))

    if off_the_step_grid(T, dt):
        with pytest.raises(ConfigurationError, match="not a multiple"):
            bridge.bridge_flow(spec, T, dt)
        return
    rhs = lambda xi, r, s: bridge._rhs(g, a_vals, da_vals, xi, r, gradient(g, s))
    per_cell = int(round(mesh.delta / dt))
    times, rs, ss, dts = ref_field_march(
        rhs, rho0, phi0, mesh, per_cell, dt, T, density.RHO_FLOOR, dt_max_of
    )
    traj = bridge.bridge_flow(spec, T, dt)
    assert np.array_equal(traj.times, times)
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.rhos, rs))
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.phis, ss))
    assert [rep["dt_max"] for rep in traj.reports[1:]] == dts
    assert len(traj.rhos) == len(traj.phis) == len(rs) == len(traj.reports)


@settings(max_examples=40, deadline=None)
@given(sub=st.integers(1, 7), T=st.sampled_from([0.3, 0.5, 1.0]), seed=st.integers(0, 99))
def test_field_and_phase_marches_share_one_step_grid(sub, T, seed):
    # every march on one mesh takes the same step times, the last of them T itself
    g, rho0, phi0 = smooth_fields(8)  # a band that keeps the bridge's steps of up to T / 4 stable
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=seed, T=T, level=2), T / 4)
    zero = lambda y: np.zeros_like(y)
    spec = bridge.BridgeSpec(g, zero, zero, mesh, rho0, phi0)
    times = [
        density.whf_evolve(rho0, phi0, mesh, density.WhfSpec(), sub).times,
        bridge.bridge_flow(spec, T, mesh.delta / sub).times,
        phase.wz_flow(HamiltonianSpec(dim=1), PhaseState([0.0], [1.0]), mesh, sub).times,
    ]
    assert times[0][-1] == T and len(times[0]) == 4 * sub + 1
    assert all(t.tobytes() == times[0].tobytes() for t in times[1:])


# ---------------------------------------------------------------------------
# the fused field rates against the public operators they compose, the
# stacked field step against one-row calls, and the one-column tangent

def rate_data(kind, rows=()):
    """(grid, rho, grad Phi, xi') on 64 points, smooth (two modes) or rough
    (white noise); rows stacks 3 fields, each with its own slope."""
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.axis()
    rng = np.random.default_rng(12)
    shape = rows + (g.n,)
    if kind == "smooth":
        rho = 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(3 * x) * rng.uniform(0.5, 1.5, rows + (1,))
        gphi = 0.3 * np.sin(x) + 0.2 * np.cos(2 * x) * rng.uniform(0.5, 1.5, rows + (1,))
    else:
        rho, gphi = rng.uniform(0.2, 2.0, shape), rng.normal(0.0, 1.0, shape)
    xi = np.array([[0.7], [-1.3], [0.0]]) if rows else 0.7
    return g, rho, gphi, xi


def assert_rel_close(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["smooth", "rough"])
@pytest.mark.parametrize("rows", [(), (3,)])
def test_whf_rates_match_the_composed_operators(kind, rows):
    g, rho, gphi, xi = rate_data(kind, rows)
    x = g.axis()
    wspec = density.WhfSpec(
        free_energy=density.Functional(potential=np.cos(x), fisher_coeff=0.01),
        noise_energy=density.Functional(potential=np.sin(x)),
        eta=0.5,
    )
    drho, dphi = density._whf_rhs(g, wspec, xi, rho, gphi)
    kin = 1.0 + wspec.eta * xi
    assert_rel_close(drho, -kin * fields.divergence(g, fields.dealias(g, rho * gphi)))
    want = -kin * 0.5 * fields.dealias(g, gphi * gphi)
    want -= wspec.free_energy.variation(g, rho)
    want -= wspec.eta * xi * wspec.noise_energy.variation(g, rho)
    assert_same(dphi, want)  # the dealias row of the stacked transform is dealias itself


@pytest.mark.parametrize("kind", ["smooth", "rough"])
@pytest.mark.parametrize("rows", [(), (3,)])
def test_bridge_rates_match_the_composed_operators(kind, rows):
    g, rho, gphi, xi = rate_data(kind, rows)
    x = g.axis()
    a_vals, da_vals = 0.3 + 0.1 * np.cos(x), -0.1 * np.sin(x)
    drho, dphi = bridge._rhs(g, a_vals, da_vals, xi, rho, gphi)
    flux = rho * (gphi + a_vals * xi)
    assert_rel_close(drho, bridge._band_limit(g, -fields.divergence(g, flux)))
    want = (-0.5 * gphi ** 2 - (gphi * a_vals - 0.5 * da_vals) * xi
            + 0.125 * fields.bohm(g, rho, density.RHO_FLOOR))
    assert_same(dphi, bridge._band_limit(g, want))


def test_stacked_whf_rows_equal_the_one_row_calls():
    g, rho, _, xi = rate_data("rough", (3,))
    x = g.axis()
    phi = 0.05 * np.sin(x) + 0.01 * np.random.default_rng(13).normal(size=rho.shape)
    phi[2] *= 1e3  # this row breaks its stability bound and comes out NaN
    wspec = density.WhfSpec(
        free_energy=density.Functional(potential=np.cos(x), fisher_coeff=0.01),
        noise_energy=density.Functional(potential=np.sin(x)),
        eta=0.5,
    )
    stacked = density._whf_rows(g, wspec, xi, rho, phi, 2.0 ** -8)
    assert np.isnan(stacked[0][2]).all() and np.isfinite(stacked[0][[0, 1]]).all()
    for m in range(3):
        one = density._whf_rows(g, wspec, float(xi[m, 0]), rho[m], phi[m], 2.0 ** -8)
        for a, b in zip(stacked, one):
            assert_same(a[m], b)


@pytest.mark.parametrize("with_v0", [False, True])
def test_one_column_tangent_is_column_zero_of_the_full_march(with_v0):
    # the push-forward's tangent: (1, v0'(x0)) from p0 = v0(x0), or (1, 0) from p0 = 0
    spec = pendulum(eta=0.8)
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-2.0, 2.0, (40, 1))
    p0, slope = (rng.normal(size=(40, 1)), rng.normal(size=40)) if with_v0 else (
        np.zeros((40, 1)), np.zeros(40))
    full = np.broadcast_to(np.eye(2), (40, 2, 2)).copy()
    full[:, 1, 0] = slope
    column = np.ascontiguousarray(full[:, :, :1])
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=4, T=0.5, level=6), 2.0 ** -4)
    a, b = (phase.variational_flow(spec, PhaseState(x0, p0), mesh, substeps_per_cell=4, J0=J0)
            for J0 in (full, column))
    assert b.jacobians.shape == a.jacobians.shape[:-1] + (1,)
    assert_same(a.jacobians[..., :1], b.jacobians)
    assert_same(a.xs, b.xs)


# ---------------------------------------------------------------------------
# density-flow study: one whf_evolve per path and level, each failure a
# StabilityError counted in the census

WHF_DELTAS = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5]


def whf_payload(eta):
    g = GridSpec(1, 64, 2 * np.pi)
    x = g.axis()
    wspec = density.WhfSpec(noise_energy=density.Functional(potential=np.sin(x)), eta=eta)
    return {"rho0": DensityField.normalized(g, 1.0 + 0.2 * np.cos(x)),
            "phi0": PotentialField.projected(g, 0.05 * np.sin(x)), "wspec": wspec}


def ref_whf_path(eta, sub, path_seed, T=0.5):
    """One path of the study on whf_payload(eta): the finest level's march is
    the reference, each coarser level's sup-in-time L2 gap to it is sampled
    at the coarsest level's substep times. Returns the coarser levels'
    errors (NaN where failed) and which levels count the path as failed."""
    payload = whf_payload(eta)
    grid = payload["rho0"].grid
    path = noise.sample_brownian(seed=path_seed, T=T, level=noise.dyadic_level(T, WHF_DELTAS[-1]))

    def run(d):
        mesh = noise.WongZakaiMesh(path, d)
        return density.whf_evolve(payload["rho0"], payload["phi0"], mesh, payload["wspec"], sub, T)

    errors, failed = np.full(len(WHF_DELTAS) - 1, np.nan), [False] * len(WHF_DELTAS)
    sample_times = np.linspace(0.0, T, int(round(T / WHF_DELTAS[0])) * sub + 1)
    try:
        ref = run(WHF_DELTAS[-1])
    except StabilityError:
        failed = [True] * len(WHF_DELTAS)
    else:
        ii_ref = noise.grid_index(sample_times, ref.times[1], len(ref.times) - 1)
        for j, d in enumerate(WHF_DELTAS[:-1]):
            try:
                traj = run(d)
            except StabilityError:
                failed[j] = True
                continue
            ii = noise.grid_index(sample_times, traj.times[1], len(traj.times) - 1)
            gap = np.array([traj.rhos[a].values - ref.rhos[b].values for a, b in zip(ii, ii_ref)])
            errors[j] = np.max(np.sqrt(np.sum(gap ** 2, axis=1) * grid.h))
    return errors, failed


@pytest.fixture(scope="module")
def whf_paths():
    """ref_whf_path's results by (eta, substeps, path seed): the study
    configurations below share most of their paths."""
    return {}


def ref_whf_errors(paths, eta, M, seed, sub):
    """_per_path_errors' (deltas, errors, census) of the study, path by path."""
    for m in range(M):
        if (eta, sub, seed + m) not in paths:
            paths[eta, sub, seed + m] = ref_whf_path(eta, sub, seed + m)
    rows = [paths[eta, sub, seed + m] for m in range(M)]
    failures = np.sum([failed for _, failed in rows], axis=0)
    census = {d: int(n) for d, n in zip(WHF_DELTAS, failures) if n}
    return np.array(WHF_DELTAS[:-1]), np.array([errors for errors, _ in rows]), census


def hexes(a):
    return [x.hex() for x in np.ravel(np.asarray(a, dtype=float)).tolist()]


def whf_report(eta, M, seed, sub):
    """The study's report as hex strings, or the message of the failure it raises."""
    try:
        report = studies.strong_convergence_study(
            "wasserstein.generalized", whf_payload(eta), WHF_DELTAS, M, 0.5, None, seed, sub)
    except EvaluationError as exc:
        return str(exc)
    fits = (report.order, report.order_stderr, report.intercept)
    return ([hexes(getattr(report, name)) for name in ("deltas", "errors", "ci_low", "ci_high")]
            + [None if v is None else v.hex() for v in fits] + [report.degenerate, report.metadata])


def assert_same_whf_study(paths, eta, M, seed, sub, monkeypatch):
    """The stacked study's per-path errors, census and report equal the loop's."""
    stacked, got = studies._whf_errors, []
    monkeypatch.setattr(studies, "_whf_errors", lambda *args: got.append(stacked(*args)) or got[0])
    report = whf_report(eta, M, seed, sub)
    want = ref_whf_errors(paths, eta, M, seed, sub)
    (used, errors, census), = got
    assert hexes(used) == hexes(want[0])
    assert hexes(errors) == hexes(want[1])
    assert list(census.items()) == list(want[2].items())
    monkeypatch.setattr(studies, "_whf_errors", lambda *args: want)
    assert report == whf_report(eta, M, seed, sub)
    return census


@pytest.mark.parametrize("M", [16, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_whf_study_matches_per_path_loop(seed, M, whf_paths, monkeypatch):
    # one of the paths seeded 7..15 fails at the coarsest level
    census = assert_same_whf_study(whf_paths, 0.5, M, seed, 8, monkeypatch)
    assert census == ({0.25: 1} if M == 16 else {})


@pytest.mark.parametrize("eta,sub,census", [
    (0.8, 8, {0.25: 2, 0.125: 1}),
    (0.8, 4, {0.25: 6, 0.125: 6, 0.0625: 6, 0.03125: 4}),
    (1.0, 8, {0.25: 6, 0.125: 5, 0.0625: 5, 0.03125: 2}),  # 2 failed references
    (1.0, 4, {0.25: 6, 0.125: 6, 0.0625: 6, 0.03125: 6}),
])
def test_whf_study_failures_match_per_path_loop(eta, sub, census, whf_paths, monkeypatch):
    assert assert_same_whf_study(whf_paths, eta, 8, 3, sub, monkeypatch) == census


# ---------------------------------------------------------------------------
# per-march invariants, counted: what one step evaluates

def counted_pendulum(monkeypatch):
    """The pendulum with spec.df, spec.dsigma and every grad_x_h* call counted."""
    spec, calls = pendulum(), {"df": 0, "dsigma": 0, "grad_x_h": 0}
    df, dsigma = spec.df, spec.dsigma

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    spec.df, spec.dsigma = counted("df", df), counted("dsigma", dsigma)
    for name in ("grad_x_h0", "grad_x_h1"):
        original = getattr(HamiltonianSpec, name)
        monkeypatch.setattr(HamiltonianSpec, name, counted("grad_x_h", original))
    return spec, calls


def test_phase_steps_evaluate_the_field_once_per_stage(monkeypatch):
    M = 3
    spec, calls = counted_pendulum(monkeypatch)
    state0 = PhaseState(np.full((M, 1), 0.3), np.full((M, 1), 0.7))
    path = noise.sample_brownian(seed=1, T=1.0, level=7, d_B=M)
    run = phase.wz_flow(spec, state0, noise.WongZakaiMesh(path, 2.0 ** -3), substeps_per_cell=4)
    n = len(run.times) - 1  # 32 RK4 steps, 4 stages each
    assert calls == {"df": 4 * n, "dsigma": 4 * n, "grad_x_h": 0}

    calls.update(df=0, dsigma=0)
    run = phase.strat_flow(spec, state0, path, dt=2.0 ** -6)
    n = len(run.times) - 1  # 64 Heun steps: drift and noise at two points each
    assert calls == {"df": 2 * n, "dsigma": 2 * n, "grad_x_h": 0}

    # the study: each of the 128 reference steps is one Heun step; on every
    # 4th the stacked levels take one RK4 step together
    calls.update(df=0, dsigma=0)
    studies._per_path_errors("phase_flow", {"spec": spec, "state0": PhaseState([0.3], [0.7])},
                             [2.0 ** -2, 2.0 ** -3, 2.0 ** -4], M, 1.0, 2.0 ** -7, 1, 2)
    n_ref, n_rk4 = 128, 32
    assert calls == {"df": 2 * n_ref + 4 * n_rk4, "dsigma": 2 * n_ref + 4 * n_rk4, "grad_x_h": 0}


def test_field_marches_build_spectral_symbols_once(monkeypatch):
    calls = []
    fftfreq = np.fft.fftfreq
    monkeypatch.setattr(np.fft, "fftfreq", lambda *a, **k: calls.append(a) or fftfreq(*a, **k))
    g, rho0, phi0 = smooth_fields()
    x = g.axis()
    wspec = density.WhfSpec(
        free_energy=density.Functional(potential=np.cos(x), fisher_coeff=0.01), eta=0.5)
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=5, T=0.5, level=7), 2.0 ** -4)
    bspec = bridge.BridgeSpec(g, lambda y: 0.3 + 0.1 * np.cos(y), lambda y: -0.1 * np.sin(y),
                              mesh, rho0, phi0)
    marches = (lambda: density.whf_evolve(rho0, phi0, mesh, wspec, 4),
               lambda: bridge.bridge_flow(bspec, 0.5, 2.0 ** -7))
    for march in marches:
        march()
    assert len(calls) <= 4  # i k, -|k|^2, the 2/3 rule and the n/4 band, once per grid
    calls.clear()
    for march in marches:  # 32 + 64 steps on a grid whose symbols are built
        march()
    assert calls == []


# ---------------------------------------------------------------------------
# stochastic NLS: one Strang step at a time on a single wave

PERIOD = 2 * np.pi
CUBIC = (1.0, lambda s: s, lambda s: 0.5 * s ** 2)
MODES = (
    (lambda y: 0.5 * np.cos(y), lambda y: -0.5 * np.sin(y)),
    (lambda y: 0.3 * np.sin(2 * y), lambda y: 0.6 * np.cos(2 * y)),
)


def ref_snls_step(spec, v, t, dt):
    """Kinetic half step, pointwise phase rotation, kinetic half step, with
    every multiplier and noise increment rebuilt for this step alone."""
    grid = GridSpec(1, v.size, PERIOD)
    k = grid.wavenumbers()
    kinetic = lambda v, tau: np.fft.ifft(np.exp(-1j * k ** 2 * tau) * np.fft.fft(v))
    if spec.driver == "wz_potential":
        v = kinetic(v, dt / 2)
        d_w = spec.wiener.increment(spec.delta, t, t + dt, grid.axis())
        v = v * np.exp(1j * (spec.lam * spec.f(np.abs(v) ** 2) * dt + d_w))
        return kinetic(v, dt / 2)
    tau1 = tau2 = dt / 2
    if spec.driver == "white_dispersion":
        b = spec.brownian
        db = float(b.values[int(round((t + dt) / b.dt)), 0] - b.values[int(round(t / b.dt)), 0])
        tau1 = tau2 = db / 2
    elif spec.driver == "random_dispersion":
        tau1 = noise.dispersion_integral(spec.dispersion, t, t + dt / 2)
        tau2 = noise.dispersion_integral(spec.dispersion, t + dt / 2, t + dt)
    v = kinetic(v, tau1)
    v = v * np.exp(1j * spec.lam * spec.f(np.abs(v) ** 2) * dt)
    return kinetic(v, tau2)


def nls_spec(driver):
    if driver == "wz_potential":
        path = noise.sample_brownian(seed=3, T=1.0, level=9, d_B=2)
        return snls.NlsSpec(*CUBIC, driver, wiener=noise.WienerField(MODES, path),
                            delta=2.0 ** -3)
    if driver == "white_dispersion":
        return snls.NlsSpec(*CUBIC, driver, brownian=noise.sample_brownian(seed=4, T=1.0, level=9))
    if driver == "random_dispersion":
        return snls.NlsSpec(*CUBIC, driver,
                            dispersion=noise.DispersionDriver(1.0, 1.0, 0.5, 1.0, seed=2))
    return snls.NlsSpec(*CUBIC)


def nls_wave(n):
    grid = GridSpec(1, n, PERIOD)
    x = grid.axis()
    return snls.WaveField(grid, (1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)) * np.exp(1j * x))


@pytest.mark.parametrize("driver", ["none", "wz_potential", "white_dispersion",
                                    "random_dispersion"])
@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("n_steps,dt", [(21, 2.0 ** -7), (16, 2.0 ** -6)])
def test_snls_evolve_matches_reference(driver, n, n_steps, dt):
    spec, u0 = nls_spec(driver), nls_wave(n)
    vs = [u0.values]
    for j in range(n_steps):
        vs.append(ref_snls_step(spec, vs[-1], j * dt, dt))
    times = np.arange(n_steps + 1) * dt
    traj = snls.evolve(spec, u0, n_steps * dt, dt, sample_times=times)
    same = lambda a, b: np.asarray(a).tobytes() == np.asarray(b).tobytes()  # sign bits included
    assert same(traj.times, times)
    assert len(traj.waves) == len(vs)
    assert all(same(u.values, v) for u, v in zip(traj.waves, vs))
    ref_waves = [snls.WaveField(u0.grid, v) for v in vs]
    assert same(traj.mass, [u.mass for u in ref_waves])
    assert same(traj.energy, [snls.energy(spec, u) for u in ref_waves])
    t = 5 * dt
    assert same(snls.step(spec, u0, t, dt).values, ref_snls_step(spec, u0.values, t, dt))


DRIVERS = ["none", "wz_potential", "white_dispersion", "random_dispersion"]


def counting_transforms(monkeypatch):
    """A list that gains an entry at each np.fft.fft or np.fft.ifft call."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, t=transform, **k: calls.append(t) or t(*a, **k))
    return calls


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("n_steps", [1, 2, 37])
def test_unrecorded_steps_make_two_transforms(monkeypatch, driver, n_steps):
    spec, u0, dt = nls_spec(driver), nls_wave(32), 2.0 ** -7
    calls = counting_transforms(monkeypatch)
    snls.evolve(spec, u0, n_steps * dt, dt, sample_times=[0.0, n_steps * dt])
    # one fft to start, an ifft and an fft per step, one ifft to complete the
    # last step, then the energies of the two samples at 2 transforms each
    assert len(calls) == 2 * n_steps + 2 + 2 * 2


@pytest.mark.parametrize("driver,per_step", [("white_dispersion", 1), ("random_dispersion", 2)])
@pytest.mark.parametrize("n_steps", [1, 2, 37])
def test_dispersion_marches_build_each_distinct_half_step_multiplier_once(
        monkeypatch, driver, per_step, n_steps):
    # white dispersion's two half steps share db / 2, so one exp builds both
    spec, u0, dt = nls_spec(driver), nls_wave(32), 2.0 ** -7
    calls = []
    multiplier = snls._multiplier
    monkeypatch.setattr(snls, "_multiplier", lambda k, tau: calls.append(tau) or multiplier(k, tau))
    snls.evolve(spec, u0, n_steps * dt, dt, sample_times=[0.0, n_steps * dt])
    assert len(calls) == per_step * n_steps


def test_study_completes_only_recorded_steps(monkeypatch):
    u0, deltas = nls_wave(256), [2.0 ** -k for k in range(3, 8)]
    calls = counting_transforms(monkeypatch)
    snls.wz_convergence_study(*CUBIC, MODES, u0, 1.0, deltas, 2.0 ** -8, 5, seed=0)
    # 256 steps at 2 transforms, 8 recorded ends completed, 7 of them restarted
    assert len(calls) == 2 * 256 + 1 + 8 + 7 == 528


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("n", [32, 128])
def test_merged_half_steps_agree_with_per_step_march(driver, n):
    spec, u0, dt = nls_spec(driver), nls_wave(n), 2.0 ** -7
    v = u0.values
    for j in range(128):
        v = ref_snls_step(spec, v, j * dt, dt)
    got = snls.evolve(spec, u0, 128 * dt, dt, sample_times=[0.0, 128 * dt]).waves[-1].values
    assert np.linalg.norm(got - v) <= 1e-12 * np.linalg.norm(v)


def ref_wz_study(u0, deltas, dt, n_paths, seed):
    """Per-path errors of the Wong-Zakai study, one evolve per (path, delta)."""
    deltas = sorted(deltas, reverse=True)
    level = max(noise.dyadic_level(1.0, d) for d in deltas) + 2
    errors = np.zeros((n_paths, len(deltas) - 1))
    for m in range(n_paths):
        path = noise.sample_brownian(seed=seed + m, T=1.0, level=level, d_B=len(MODES))
        wiener = noise.WienerField(MODES, path)
        waves = [
            snls.evolve(snls.NlsSpec(*CUBIC, "wz_potential", wiener=wiener, delta=d), u0,
                        1.0, dt, np.linspace(0, 1.0, 9)).waves
            for d in deltas
        ]
        for i, ws in enumerate(waves[:-1]):
            errors[m, i] = max(
                np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * u0.grid.h)
                for a, b in zip(ws, waves[-1])
            )
    return errors


# 16 paths x 4 levels of 256 points make a 256 KiB batch, the size from which
# numpy may reuse a temporary array as an operator's output
@pytest.mark.parametrize("n,n_paths,dt", [(32, 3, 2.0 ** -6), (256, 16, 2.0 ** -5)])
def test_wz_study_matches_per_row_evolve(n, n_paths, dt):
    deltas = [2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5]
    u0 = nls_wave(n)
    out = snls.wz_convergence_study(*CUBIC, MODES, u0, 1.0, deltas, dt, n_paths, seed=7)
    errors = ref_wz_study(u0, deltas, dt, n_paths, seed=7)
    assert np.array_equal(out["per_path_errors"], errors)
    assert np.array_equal(out["rms_errors"], np.sqrt(np.mean(errors ** 2, axis=0)))
    rms = out["rms_errors"]
    assert out["order"] == noise.fit_order(list(zip(deltas[:-1], rms)))[0]
    polyfit = np.polyfit(np.log(deltas[:-1]), np.log(rms), 1)[0]
    assert abs(out["order"] - polyfit) <= 1e-12 * abs(polyfit)


# ---------------------------------------------------------------------------
# stochastic NLS: the potential drivers' kick, one row at a time

def ref_potential_march(spec, grid, v, t0, dt, n_steps, dw):
    """Strang steps of the potential drivers on the rows of v, each row's
    noise phase its own vector-matrix product and the kick np.exp(1j * theta);
    returns every state and raises as the march does."""
    k = grid.wavenumbers()
    half = np.exp(-1j * k ** 2 * (dt / 2))
    q = spec.wiener.mode_values(grid.axis())
    states = [v]
    for j, t in enumerate((t0 + np.arange(n_steps) * dt).tolist()):
        v = np.fft.ifft(half * np.fft.fft(v))
        d_w = np.stack([row[j] @ q for row in dw])
        rotation = np.exp(1j * (spec.lam * spec.f(np.abs(v) ** 2) * dt + d_w))
        v = v * rotation
        v = np.fft.ifft(half * np.fft.fft(v))
        if not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
            raise EvaluationError(f"wave became non-finite during step at t={t}")
        states.append(v)
    return states


THREE_MODES = MODES + ((lambda y: 0.2 + 0.1 * np.cos(3 * y), lambda y: -0.3 * np.sin(3 * y)),)


def kick_case(driver, d_B, lam, f=lambda s: s, seed=5):
    path = noise.sample_brownian(seed=seed, T=1.0, level=8, d_B=d_B)
    return snls.NlsSpec(lam, f, lambda s: 0.5 * s ** 2, driver,
                        wiener=noise.WienerField(THREE_MODES[:d_B], path), delta=2.0 ** -3)


def recorded_march(spec, grid, v, t0, dt, n_steps, dw=None):
    """Every state of the march, which then completes every step."""
    states = []
    snls._march(spec, grid, v, t0, dt, n_steps, range(n_steps + 1),
                lambda j, v: states.append(v), dw)
    return states


def test_rotation_is_complex_exp_bitwise():
    theta = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, 0.75, -3.5,
                      1e300, -1e300])
    rot = snls._rotation(theta, np.empty(theta.shape, dtype=complex))
    assert rot.tobytes() == np.exp(1j * theta).tobytes()
    with np.errstate(invalid="ignore"):
        bad = np.array([np.inf, -np.inf, np.nan])
        assert not np.isfinite(snls._rotation(bad, np.empty(3, dtype=complex))).any()
        assert not np.isfinite(np.exp(1j * bad)).any()


# 80 rows of 256 points make a 320 KiB batch, over the 256 KiB from which
# numpy may reuse a temporary array as an operator's output
@pytest.mark.parametrize("driver", ["wz_potential"])
@pytest.mark.parametrize("lam", [1.0, -2.0])
@pytest.mark.parametrize("B,d_B,n,n_steps", [(1, 1, 64, 12), (3, 2, 64, 12), (25, 3, 64, 12),
                                             (3, 1, 32, 9), (25, 2, 32, 9), (80, 2, 256, 6)])
def test_potential_kick_matches_per_row_exp(driver, lam, B, d_B, n, n_steps):
    spec = kick_case(driver, d_B, lam)
    rng = np.random.default_rng(B * 10 + d_B)
    grid = GridSpec(1, n, PERIOD)
    v = (rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))) * 0.7
    v[0] = 0.0  # a zero row: lam f(0) dt is a signed zero
    dw = rng.standard_normal((B, n_steps, d_B)) * 0.2
    dw[:, 0] = -0.0
    dt = 2.0 ** -6
    got = recorded_march(spec, grid, v, 0.25, dt, n_steps, dw)
    want = ref_potential_march(spec, grid, v, 0.25, dt, n_steps, dw)
    assert len(got) == len(want) == n_steps + 1
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("driver", ["wz_potential"])
@pytest.mark.parametrize("d_B", [1, 2, 3])
def test_potential_kick_with_the_spec_noise_matches_per_row_exp(driver, d_B):
    spec, u0, dt = kick_case(driver, d_B, -2.0), nls_wave(64), 2.0 ** -6
    ts = np.arange(16) * dt
    dw = snls._wz_increments(spec.wiener, spec.delta, ts, dt)[None]
    got = recorded_march(spec, u0.grid, u0.values[None], 0.0, dt, 16)
    want = ref_potential_march(spec, u0.grid, u0.values[None], 0.0, dt, 16, dw)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("driver", ["wz_potential"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_potential_kick_blow_up_raises_at_the_same_step(driver, bad):
    def blowing_up(calls):
        # f turns non-finite at its 6th call, so the wave does in step 5
        return lambda s: s if next(calls) < 5 else np.full_like(s, bad)

    u0, dt = nls_wave(32), 2.0 ** -6
    v, dw = np.repeat(u0.values[None], 3, axis=0), np.full((3, 12, 2), 0.01)
    errors = []
    for march in (recorded_march, ref_potential_march):
        spec = kick_case(driver, 2, 1.0, blowing_up(itertools.count()))
        with pytest.raises(EvaluationError) as info:
            march(spec, u0.grid, v, 0.125, dt, 12, dw)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == f"wave became non-finite during step at t={0.125 + 5 * dt}"


# ---------------------------------------------------------------------------
# default zero gradients: resolved to a scalar per march, same bits as zeros

ZERO = phase.ZERO_POTENTIAL


def zero_default_specs(kind, eta):
    """(spec with default zero gradients, the same spec with each default
    replaced by an explicit np.zeros_like callable)."""
    zeros = lambda x: np.zeros_like(x)
    s, ds, d2s = scalar_potential(lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    if kind == "free":  # df and dsigma default
        kw, explicit = dict(d2f=ZERO[2], d2sigma=ZERO[2]), dict(df=zeros, dsigma=zeros)
    elif kind == "noisy":  # df default
        kw, explicit = dict(sigma=s, dsigma=ds, d2f=ZERO[2], d2sigma=d2s), dict(df=zeros)
    else:  # dsigma default
        kw, explicit = dict(f=f, df=df, d2f=d2f, d2sigma=ZERO[2]), dict(dsigma=zeros)
    spec = HamiltonianSpec(dim=1, eta=eta, **kw)
    return spec, HamiltonianSpec(dim=1, eta=eta, **kw, **explicit)


def zero_default_runs(spec):
    """Every public entry point that marches spec's fields, on signed zeros."""
    x0 = np.array([[0.0], [-0.0], [-0.0], [0.5], [-1.25], [0.0]])
    p0 = np.array([[-0.0], [0.0], [-0.0], [-0.0], [0.25], [-0.0]])
    state, ensemble = PhaseState(x0, p0), vlasov.PhaseEnsemble(x0, p0)
    path = noise.sample_brownian(seed=11, T=0.5, level=7)
    mesh = noise.WongZakaiMesh(path, 2.0 ** -4)
    per_row = noise.WongZakaiMesh(noise.sample_brownian(seed=12, T=0.5, level=7, d_B=6),
                                  2.0 ** -4)
    out = []
    for r in (phase.wz_flow(spec, state, mesh, 3), phase.wz_flow(spec, state, per_row, 2),
              phase.strat_flow(spec, state, path, 2.0 ** -6)):
        out += [r.xs, r.ps, r.h0, r.h1]
    for r in (phase.variational_flow(spec, state, mesh, substeps_per_cell=3),
              phase.variational_flow(spec, state, path, dt=2.0 ** -6)):
        out += [r.xs, r.ps, r.jacobians]
    for e in vlasov.evolve_conditional(spec, ensemble, mesh, 2, [0.0, 0.25, 0.5]):
        out += [e.x, e.p]
    table = vlasov.weak_residual_second_order(spec, ensemble, 30, 2.0 ** -4,
                                              np.linspace(0, 0.5, 3), seed=3)
    return out + [table[key] for key in sorted(set(table) - {"labels"})]


@pytest.mark.parametrize("kind", ["free", "noisy", "forced"])
@pytest.mark.parametrize("eta", [0.0, 1.0, -1.0])
def test_default_zero_gradients_match_explicit_zeros_bitwise(kind, eta, monkeypatch):
    monkeypatch.setattr(vlasov, "N_BOOTSTRAP", 10)
    default, explicit = zero_default_specs(kind, eta)
    got, want = zero_default_runs(default), zero_default_runs(explicit)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# closed-form Hamiltonians: pinned against a frozen metric-object spelling

class RefIdentityMetric:
    """g = I spelled as a metric object: kinetic energy |p|^2 / 2 with no
    position dependence."""

    def apply_inv(self, x, p):
        return p

    def kinetic(self, x, p):
        return 0.5 * np.sum(p * p, axis=-1)

    def kinetic_grad_x(self, x, p):
        return np.zeros_like(x)


def ref_scalar_potential(f, df, d2f=None):
    """Scalar callables adapted entry by entry to the (..., d) contract."""
    pot = lambda x: f(x[..., 0])
    grad = lambda x: df(x[..., 0])[..., None]
    hess = None if d2f is None else (lambda x: d2f(x[..., 0])[..., None, None])
    return pot, grad, hess


class RefHamiltonian:
    """H0 = p' g^{-1} p / 2 + f and H1 = eta * (sigma + p' gtilde^{-1} p / 2)
    through metric objects with g = gtilde = I; every other attribute is
    the wrapped spec's, so the reference flows above can march it."""

    def __init__(self, spec):
        self.spec, self.metric = spec, RefIdentityMetric()
        self.tilde = None if spec.tilde_metric is None else RefIdentityMetric()

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def h0(self, x, p):
        return self.metric.kinetic(x, p) + self.spec.f(x)

    def h1(self, x, p):
        out = self.spec.eta * self.spec.sigma(x)
        if self.tilde is not None:
            out = out + self.spec.eta * self.tilde.kinetic(x, p)
        return out

    def grad_x_h0(self, x, p):
        return self.metric.kinetic_grad_x(x, p) + self.spec.df(x)

    def grad_p_h0(self, x, p):
        return self.metric.apply_inv(x, p)

    def grad_x_h1(self, x, p):
        out = self.spec.eta * self.spec.dsigma(x)
        if self.tilde is not None:
            out = out + self.spec.eta * self.tilde.kinetic_grad_x(x, p)
        return out

    def grad_p_h1(self, x, p):
        if self.tilde is None:
            return np.zeros_like(p)
        return self.spec.eta * self.tilde.apply_inv(x, p)


def ref_fields(ref, xi, x, p):
    """(drift, noise) fields: flat specs skip the terms that are zero by
    construction, gtilde = I specs go through the metric objects."""
    spec = ref.spec
    if spec.tilde_metric is None:
        if isinstance(xi, float) and xi == 0.0:
            drift = [p, -spec.df(x)]
        else:
            drift = [p, -(spec.df(x) + spec.eta * spec.dsigma(x) * xi)]
        return drift, [None, -(spec.eta * spec.dsigma(x))]
    drift = [ref.grad_p_h0(x, p) + ref.grad_p_h1(x, p) * xi,
             -(ref.grad_x_h0(x, p) + ref.grad_x_h1(x, p) * xi)]
    return drift, [ref.grad_p_h1(x, p), -ref.grad_x_h1(x, p)]


def ref_growth(ref, x, p, C1, c1):
    """The coercivity bound terms through the metric object, t4 = 0 for g = I."""
    spec, g = ref.spec, ref.metric
    eta = abs(spec.eta)
    ds = spec.dsigma(x)
    ginv_ds, ginv_p = g.apply_inv(x, ds), g.apply_inv(x, p)
    force = -g.kinetic_grad_x(x, p) - spec.df(x)
    t1 = eta ** 2 * np.abs(np.sum(ds * ginv_ds, axis=-1))
    t2 = eta * np.abs(np.sum(p * ginv_ds, axis=-1))
    t3 = eta * np.abs(np.sum(ds * g.apply_inv(x, force), axis=-1))
    t4 = np.zeros_like(t1)
    t5 = eta * np.abs(np.einsum("...i,...ik,...k->...", ginv_p, spec.d2sigma(x), ginv_p))
    left = t1 + t2 + t3 + t4 + t5
    bound = C1 + c1 * ref.h0(x, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0, left / bound, np.inf * np.sign(left))
    ratio = np.where(left == 0, 0.0, ratio)
    k = int(np.argmax(ratio))
    return ratio[k], x[k], p[k], left.max()


# (f, df, d2f) and (sigma, dsigma, d2sigma) as scalar callables: the pendulum,
# whose dsigma = cos has no zero on the grid, and a quadratic sigma whose
# dsigma = x is a signed zero at x = +-0.0
SCALARS = {
    "pendulum": ((np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
                 (np.sin, np.cos, lambda x: -np.sin(x))),
    "quadratic": ((np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
                  (lambda x: 0.5 * x ** 2, lambda x: x, np.ones_like)),
}
X0 = np.array([[0.0], [-0.0], [-0.0], [0.5], [-1.25], [0.0], [3.0]])
P0 = np.array([[-0.0], [0.0], [-0.0], [-0.0], [0.25], [0.0], [-2.0]])


def closed_form_pair(name, kappa, eta):
    """(spec from scalar_potential, its frozen metric-object reference built
    from the entry-by-entry adapters)."""
    (f, df, d2f), (s, ds, d2s) = (scalar_potential(*c) for c in SCALARS[name])
    kw = dict(dim=1, eta=eta, tilde_metric=phase.IdentityMetric() if kappa else None)
    spec = HamiltonianSpec(f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, **kw)
    (f, df, d2f), (s, ds, d2s) = (ref_scalar_potential(*c) for c in SCALARS[name])
    old = HamiltonianSpec(f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, **kw)
    return spec, RefHamiltonian(old)


def signed_zero_exempt(name, kappa, eta):
    """gtilde = I cases where the reference adds zeros to df and eta *
    zeros to eta * dsigma: -0.0 becomes +0.0 there, so a zero force can
    differ in its sign bit at eta = 0, or where dsigma is a signed zero."""
    return bool(kappa) and (eta == 0.0 or name == "quadratic")


def assert_same(a, b, exempt=False):
    """Equal with sign bits, or by == (signs of zero aside) when exempt."""
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    if exempt:
        assert np.array_equal(a, b)
    else:
        assert a.tobytes() == b.tobytes()


CLOSED_FORM_CASES = [(name, kappa, eta) for name in SCALARS for kappa in (0, 1)
                     for eta in (0.0, 1.0, -1.0)]


@pytest.mark.parametrize("name,kappa,eta", CLOSED_FORM_CASES)
def test_closed_form_hamiltonian_matches_metric_objects(name, kappa, eta):
    spec, ref = closed_form_pair(name, kappa, eta)
    exempt = signed_zero_exempt(name, kappa, eta)
    for a, b in [(spec.h0(X0, P0), ref.h0(X0, P0)), (spec.h1(X0, P0), ref.h1(X0, P0)),
                 (spec.grad_p_h0(X0, P0), ref.grad_p_h0(X0, P0)),
                 (spec.grad_p_h1(X0, P0), ref.grad_p_h1(X0, P0))]:
        assert_same(a, b)
    # the reference adds zeros_like(x) to df, which turns -0.0 into +0.0
    assert_same(spec.grad_x_h0(X0, P0), ref.grad_x_h0(X0, P0), exempt=True)
    assert_same(spec.grad_x_h1(X0, P0), ref.grad_x_h1(X0, P0), exempt)
    # the steppers' rates: the x-rate, the negated p-rate and the noise's
    # (x-rate, negated p-rate); negation is exact, so -q is the p-rate bitwise
    vx, q, noise_rates = phase._rates(spec)
    per_row = np.array([[0.0], [-0.0], [0.7], [-1.3], [-0.0], [2.0], [0.0]])
    for xi in (0.0, -0.0, 0.7, -1.3, per_row):
        want, want_noise = ref_fields(ref, xi, X0, P0)
        # at a zero slope the added zeros meet df = -0.0 at x = +0.0 too
        zero_slope = bool(kappa) and np.any(np.asarray(xi) == 0.0)
        for a, b in zip([vx(xi, P0), -q(xi, X0)], want):
            assert_same(a, b, exempt or zero_slope)
        bx, E = noise_rates(X0, P0)
        for a, b in zip([bx, -E], want_noise):
            assert_same(a, b, exempt)
    ratio, x, p, left = ref_growth(ref, X0, P0, C1=1.0, c1=0.5)
    got = phase.growth_diagnostic(spec, [PhaseState(a, b) for a, b in zip(X0, P0)], 1.0, 0.5)
    assert_same(got["max_ratio"], ratio)
    assert_same(got["left_max"], left)
    assert_same(got["argmax_state"].x, x)
    assert_same(got["argmax_state"].p, p)


def closed_form_flows(spec):
    """Every stored output of wz_flow, strat_flow and variational_flow
    (both drivers) on signed zeros, shared and per-row noise."""
    state = PhaseState(X0, P0)
    path = noise.sample_brownian(seed=21, T=0.5, level=7)
    mesh = noise.WongZakaiMesh(path, 2.0 ** -4)
    rows = noise.WongZakaiMesh(noise.sample_brownian(seed=22, T=0.5, level=7, d_B=7), 2.0 ** -4)
    out = []
    for r in (phase.wz_flow(spec, state, mesh, 3), phase.wz_flow(spec, state, rows, 2),
              phase.strat_flow(spec, state, path, 2.0 ** -6),
              phase.variational_flow(spec, state, mesh, substeps_per_cell=3),
              phase.variational_flow(spec, state, path, dt=2.0 ** -6)):
        out += [r.xs, r.ps, r.h0, r.h1, r.jacobians]
    return out


@pytest.mark.parametrize("name,kappa,eta", CLOSED_FORM_CASES)
def test_passed_through_gradients_match_adapters_bitwise(name, kappa, eta):
    spec, ref = closed_form_pair(name, kappa, eta)
    got, want = closed_form_flows(spec), closed_form_flows(ref.spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a, b)


@pytest.mark.parametrize("eta", [0.0, 1.0, -1.0])
@pytest.mark.parametrize("name", list(SCALARS))
def test_kinetic_noise_flows_match_metric_objects(name, eta):
    spec, ref = closed_form_pair(name, 1, eta)
    exempt = signed_zero_exempt(name, 1, eta)
    path = noise.sample_brownian(seed=23, T=0.5, level=7)
    mesh = noise.WongZakaiMesh(path, 2.0 ** -4)
    xs, ps, js = ref_rk4_flow(ref, X0, P0, mesh, 3)
    var = phase.variational_flow(spec, PhaseState(X0, P0), mesh, substeps_per_cell=3)
    plain = phase.wz_flow(spec, PhaseState(X0, P0), mesh, 3)
    for a, b in [(var.xs, xs), (var.ps, ps), (var.jacobians, js), (plain.xs, xs),
                 (plain.ps, ps), (plain.h0, ref.h0(xs, ps)), (plain.h1, ref.h1(xs, ps))]:
        assert_same(a, b, exempt)
    xs, ps, js = ref_heun_flow(ref, X0, P0, path, 2.0 ** -6)
    var = phase.variational_flow(spec, PhaseState(X0, P0), path, dt=2.0 ** -6)
    plain = phase.strat_flow(spec, PhaseState(X0, P0), path, 2.0 ** -6)
    for a, b in [(var.xs, xs), (var.ps, ps), (var.jacobians, js), (plain.xs, xs),
                 (plain.ps, ps)]:
        assert_same(a, b, exempt)


def flat_cell_path():
    """A d_B = 1 path that is exactly 0.0 up to t = 2**-4: on meshes of width
    2**-5 its first two cells have the float slope 0.0, and its first eight
    Heun increments at dt = 2**-7 are 0.0."""
    path = noise.sample_brownian(seed=23, T=0.5, level=7)
    values = path.values.copy()
    values[:17] = 0.0
    return noise.BrownianPath(T=path.T, level=path.level, seed=path.seed, d_B=1, values=values)


@pytest.mark.parametrize("name,kappa,eta", CLOSED_FORM_CASES)
def test_flows_on_flat_cells_match_references_with_sign_bits(name, kappa, eta):
    (f, df, d2f), (s, ds, d2s) = (scalar_potential(*c) for c in SCALARS[name])
    spec = HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s, eta=eta,
                           tilde_metric=phase.IdentityMetric() if kappa else None)
    path = flat_cell_path()
    mesh = noise.WongZakaiMesh(path, 2.0 ** -5)
    assert mesh.cell_derivative(0) == mesh.cell_derivative(1) == 0.0
    state = PhaseState(X0, P0)
    xs, ps, js = ref_rk4_flow(spec, X0, P0, mesh, 3)
    plain = phase.wz_flow(spec, state, mesh, 3)
    var = phase.variational_flow(spec, state, mesh, substeps_per_cell=3)
    for a, b in [(plain.xs, xs), (plain.ps, ps), (var.xs, xs), (var.ps, ps),
                 (var.jacobians, js)]:
        assert_same(a, b)
    xs, ps, js = ref_heun_flow(spec, X0, P0, path, 2.0 ** -7)
    plain = phase.strat_flow(spec, state, path, 2.0 ** -7)
    var = phase.variational_flow(spec, state, path, dt=2.0 ** -7)
    for a, b in [(plain.xs, xs), (plain.ps, ps), (var.xs, xs), (var.ps, ps),
                 (var.jacobians, js)]:
        assert_same(a, b)


# ---------------------------------------------------------------------------
# residual diagnostics: one sample index at a time, every centered time
# difference and noise slope spelled out per sample

def ref_el_residual(rhos, times, mesh, free_energy, noise_energy, eta):
    dt = times[1] - times[0]
    grid = rhos[0].grid
    n_t = len(times)
    kins = np.empty(n_t)
    for j in range(n_t):
        _, slope = noise.wz_eval(mesh, min(times[j], mesh.base.T))
        kins[j] = 1.0 + eta * float(np.reshape(slope, -1)[0])
    phis = {}
    for j in range(1, n_t - 1):
        drho = (rhos[j + 1].values - rhos[j - 1].values) / (2 * dt)
        phis[j] = density.elliptic_solve(rhos[j], drho / kins[j]).values
    cont = []
    for j in range(1, n_t - 1):
        drho = (rhos[j + 1].values - rhos[j - 1].values) / (2 * dt)
        gphi = gradient(grid, phis[j])
        r = drho + kins[j] * fields.divergence(grid, rhos[j].values * gphi)
        cont.append(float(np.max(np.abs(r))))
    hjb = []
    for j in range(2, n_t - 2):
        dphi = (phis[j + 1] - phis[j - 1]) / (2 * dt)
        gphi = gradient(grid, phis[j])
        xi_dot = (kins[j] - 1.0) / eta if eta != 0.0 else 0.0
        r = (
            dphi
            + kins[j] * 0.5 * gphi ** 2
            + free_energy.variation(grid, rhos[j].values)
            + eta * xi_dot * noise_energy.variation(grid, rhos[j].values)
        )
        r -= r.mean()
        hjb.append(float(np.max(np.abs(r))))
    return [times[1:-1], np.array(cont), times[2:-2], np.array(hjb)]


def ref_continuity_residual(rhos, velocities, times):
    grid = rhos[0].grid
    dt = times[1] - times[0]
    battery = density.trig_test_battery(grid)
    table = np.empty((len(battery), len(times) - 2))
    for i, (_, psi, dpsi) in enumerate(battery):
        obs = np.array([grid.integrate(psi * r.values) for r in rhos])
        flux = np.array([grid.integrate(dpsi * v.values * r.values)
                         for r, v in zip(rhos, velocities)])
        table[i] = np.abs((obs[2:] - obs[:-2]) / (2 * dt) - flux[1:-1])
    return [times[1:-1], table, table.max(axis=0)]


def ref_fb_residual(traj, spec, times, nu):
    dt = times[1] - times[0]
    pairs = [traj.at(t) for t in times]
    grid, a_vals = spec.grid, spec.a_values
    S = np.array([bridge.hopf_cole_inverse(r, p) for r, p in pairs])
    rho = np.array([r.values for r, _ in pairs])
    forward, backward = [], []
    for j in range(1, times.size - 1):
        _, slope = noise.wz_eval(spec.mesh, min(times[j], spec.mesh.base.T))
        xi_dot = float(np.reshape(slope, -1)[0])
        grad_s = gradient(grid, S[j])
        drho = (rho[j + 1] - rho[j - 1]) / (2 * dt)
        ds = (S[j + 1] - S[j - 1]) / (2 * dt)
        rf = (drho + fields.divergence(grid, rho[j] * (grad_s + a_vals * xi_dot))
              - nu * fields.laplacian(grid, rho[j]))
        rb = ds + 0.5 * grad_s ** 2 + grad_s * a_vals * xi_dot + nu * fields.laplacian(grid, S[j])
        rb = rb - np.mean(rb)
        forward.append(float(np.max(np.abs(rf))))
        backward.append(float(np.max(np.abs(rb))))
    return [times[1:-1], np.array(forward), np.array(backward)]


def ref_madelung_residual(waves, spec, times):
    dt = times[1] - times[0]
    grid = waves[0].grid
    mads = [snls.madelung(u) for u in waves]
    mask = np.logical_and.reduce([m.mask for m in mads])
    ref = int(np.nonzero(mask)[0][0])
    S = np.where(np.isnan(np.array([m.S for m in mads])), 0.0, np.array([m.S for m in mads]))
    for j in range(1, len(mads)):
        S[j] += 2 * np.pi * np.round((S[j - 1, ref] - S[j, ref]) / (2 * np.pi))
    rho = np.array([m.rho for m in mads])
    x, k = grid.axis(), grid.wavenumbers()
    d_dx = lambda g: np.real(np.fft.ifft(1j * k * np.fft.fft(g)))
    rho_res, s_res = [], []
    for j in range(1, len(times) - 1):
        rate, w_dot = 1.0, 0.0
        if spec.driver == "random_dispersion":
            eps = spec.dispersion.epsilon
            rate = spec.dispersion.m_at(times[j] / eps ** 2) / eps
        elif spec.driver == "wz_potential":
            _, slope = noise.wz_eval(noise.WongZakaiMesh(spec.wiener.components, spec.delta),
                                     times[j])
            w_dot = slope @ spec.wiener.mode_values(x)
        drho = (rho[j + 1] - rho[j - 1]) / (2 * dt)
        ds = (S[j + 1] - S[j - 1]) / (2 * dt)
        ramp_slope = 2 * np.pi / grid.period * (mads[j].winding or 0)  # of a winding S
        grad_s = d_dx(S[j] - ramp_slope * (x - grid.origin)) + ramp_slope
        r1 = drho + 2.0 * rate * d_dx(rho[j] * grad_s)
        r2 = (ds + rate * (grad_s ** 2 + 0.25 * fields.bohm(grid, rho[j], 1e-14))
              - spec.lam * spec.f(rho[j]) - w_dot)
        r2 = r2 - np.mean(r2[mask])
        rho_res.append(float(np.max(np.abs(r1[mask]))))
        s_res.append(float(np.max(np.abs(r2[mask]))))
    return [times[1:-1], np.array(rho_res), np.array(s_res)]


def ref_first_order(spec, ensembles, mesh):
    battery = vlasov.default_battery(spec.period)
    times = np.array([e.time for e in ensembles])
    dt = times[1] - times[0]
    n_t = len(times)
    means = np.empty((len(battery), n_t))
    rhs = np.empty((len(battery), n_t - 2))
    for j, e in enumerate(ensembles):
        x, p = e.x, e.p
        val, dx, dp, _ = ref_battery(battery, x[:, 0], p[:, 0])
        means[:, j] = val.mean(axis=1)
        if 0 < j < n_t - 1:
            _, slope = noise.wz_eval(mesh, min(times[j], mesh.base.T))
            xi = float(np.reshape(slope, -1)[0])
            drift = (dx * spec.grad_p_h0(x, p)[:, 0] - dp * spec.grad_x_h0(x, p)[:, 0]
                     - dp * spec.grad_x_h1(x, p)[:, 0] * xi)
            rhs[:, j - 1] = drift.mean(axis=1)
    lhs = (means[:, 2:] - means[:, :-2]) / (2 * dt)
    return [times[1:-1], lhs, rhs, np.abs(lhs - rhs)]


def whf_series(eta, fisher, seed=0):
    grid = GridSpec(1, 32, 2 * np.pi)
    x = grid.axis()
    free = density.Functional(potential=0.1 * np.cos(x), fisher_coeff=fisher)
    noisy = density.Functional(potential=np.sin(x))
    wspec = density.WhfSpec(free_energy=free, noise_energy=noisy, eta=eta)
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=seed, T=0.25, level=5), 2.0 ** -3)
    traj = density.whf_evolve(DensityField.normalized(grid, 1.0 + 0.2 * np.cos(x)),
                              PotentialField.projected(grid, 0.05 * np.sin(x)), mesh, wspec, 8)
    return traj, mesh, free, noisy


@pytest.mark.parametrize("eta,fisher", [(0.0, 0.0), (0.5, 0.0), (0.5, 1e-3), (-0.3, 1e-3)])
@pytest.mark.parametrize("stride", [1, 2])
def test_el_residual_matches_per_sample_loop(eta, fisher, stride):
    traj, mesh, free, noisy = whf_series(eta, fisher)
    rhos, times = traj.rhos[::stride], traj.times[::stride]
    got = density.el_residual(rhos, times, mesh, density.WhfSpec(free, noisy, eta))
    want = ref_el_residual(rhos, times, mesh, free, noisy, eta)
    for a, b in zip(got.values(), want):
        assert_same(a, b)


@pytest.mark.parametrize("stride", [1, 3])
def test_continuity_residual_matches_per_sample_loop(stride):
    traj, _, _, _ = whf_series(0.5, 0.0, seed=1)
    rhos, times = traj.rhos[::stride], traj.times[::stride]
    vs = [fields.VelocityField(p.grid, gradient(p.grid, p.values))
          for p in traj.phis[::stride]]
    got = density.continuity_residual(rhos, vs, times)
    for a, b in zip([got["times"], got["residuals"], got["max_per_time"]],
                    ref_continuity_residual(rhos, vs, times)):
        assert_same(a, b)


@pytest.mark.parametrize("nu", [0.5, 1.0])
@pytest.mark.parametrize("every", [None, 4])
@pytest.mark.parametrize("delta", [0.2, 0.2 / 8])
def test_fb_residual_matches_per_sample_loop(nu, every, delta):
    grid = GridSpec(1, 16, 2 * np.pi)
    x = grid.axis()
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=3, T=0.2, level=6), delta)
    spec = bridge.BridgeSpec(grid, lambda y: 0.3 + 0.1 * np.cos(y), lambda y: -0.1 * np.sin(y),
                             mesh, DensityField.normalized(grid, 1.0 + 0.3 * np.cos(x)),
                             PotentialField.projected(grid, 0.2 * np.sin(x)))
    traj = bridge.bridge_flow(spec, 0.2, 0.2 / 64)
    times = traj.times if every is None else traj.times[::every]
    got = bridge.fb_residual(traj, spec, sample_times=None if every is None else times, nu=nu)
    for a, b in zip([got["times"], got["forward"], got["backward"]],
                    ref_fb_residual(traj, spec, times, nu)):
        assert_same(a, b)


@pytest.mark.parametrize("driver", ["none", "random_dispersion", "wz_potential"])
@pytest.mark.parametrize("n", [32, 128])
def test_madelung_residual_matches_per_sample_loop(driver, n):
    spec = nls_spec(driver)
    times = np.arange(17) * 2.0 ** -6
    traj = snls.evolve(spec, nls_wave(n), times[-1], 2.0 ** -8, sample_times=times)
    got = snls.madelung_residual(traj.waves, spec, times)
    for a, b in zip([got["times"], got["rho_residual"], got["s_residual"]],
                    ref_madelung_residual(traj.waves, spec, times)):
        assert_same(a, b)


@pytest.mark.parametrize("delta,sub", [(2.0 ** -3, 4), (0.5, 16)])
@pytest.mark.parametrize("n_samples", [5, 9])
def test_first_order_residual_matches_per_sample_loop(delta, sub, n_samples):
    spec = pendulum(eta=0.7)
    rng = np.random.default_rng(7)
    e0 = vlasov.PhaseEnsemble(rng.normal(0, 0.5, (300, 1)), rng.normal(0, 0.5, (300, 1)))
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=6, T=0.5, level=5), delta)
    series = vlasov.evolve_conditional(spec, e0, mesh, sub, np.linspace(0, 0.5, n_samples))
    got = vlasov.weak_residual_first_order(spec, series, mesh)
    for a, b in zip([got["times"], got["lhs"], got["rhs"], got["residual"]],
                    ref_first_order(spec, series, mesh)):
        assert_same(a, b)


# ---------------------------------------------------------------------------
# Madelung phase unwrap: the per-node loops the cumulative sums replace

def ref_mask_components(mask):
    n = len(mask)
    if mask.all():
        return [list(range(n))]
    comps, current = [], []
    for i in range(n):
        if mask[i]:
            current.append(i)
        elif current:
            comps.append(current)
            current = []
    if current:
        if comps and mask[0] and comps[0][0] == 0:
            comps[0] = current + comps[0]
        else:
            comps.append(current)
    return comps


def ref_madelung(u, support_threshold=1e-6):
    rho = np.abs(u.values) ** 2
    raw_mass = float(np.sum(rho) * u.grid.h)
    mask = rho >= support_threshold * np.max(rho)
    ang = np.angle(u.values)
    S = np.full(u.grid.n, np.nan)
    comps = ref_mask_components(mask)
    for comp in comps:
        arr = np.array(comp)
        anchor_pos = int(np.argmax(rho[arr]))
        S_comp = np.empty(len(arr))
        S_comp[anchor_pos] = ang[arr[anchor_pos]]
        for j in range(anchor_pos + 1, len(arr)):
            S_comp[j] = S_comp[j - 1] + snls._wrap_angle(ang[arr[j]] - ang[arr[j - 1]])
        for j in range(anchor_pos - 1, -1, -1):
            S_comp[j] = S_comp[j + 1] - snls._wrap_angle(ang[arr[j + 1]] - ang[arr[j]])
        S[arr] = S_comp
    winding = None
    if mask.all():
        winding = int(round(np.sum(snls._wrap_angle(np.diff(np.concatenate([ang, ang[:1]]))))
                            / (2 * np.pi)))
    return snls.MadelungFields(rho, raw_mass, S, mask, winding, len(comps))


def madelung_wave(kind, n, seed):
    """A wave whose support runs are of the given kind: full support with
    winding, random runs (some wrapping round the end, some one node long),
    or runs whose density rises or falls along them (anchor at an end)."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    winding = int(rng.integers(-4, 5))
    phase = 2 * np.pi * winding * i / n + rng.normal(0.0, float(rng.choice([0.0, 0.5, 2.0])), n)
    if kind == "full":
        amp = 1.0 + 0.5 * rng.random(n)
    else:
        on = rng.random(n) < rng.uniform(0.2, 0.9)
        off = rng.choice([1e-2, 1e-4, 1e-5], n) * rng.random(n)
        ramp = {"random": rng.uniform(0.5, 1.0, n), "rising": 1.0 + i / n,
                "falling": 2.0 - i / n}[kind]
        amp = np.where(on, ramp, off)
    return snls.WaveField(GridSpec(1, n, PERIOD), amp * np.exp(1j * phase))


def assert_same_madelung(u, threshold):
    got, want = snls.madelung(u, threshold), ref_madelung(u, threshold)
    for name in ("rho", "S", "mask"):
        assert_same(getattr(got, name), getattr(want, name))
    assert got.raw_mass == want.raw_mass
    assert got.winding == want.winding
    assert got.n_components == want.n_components


@pytest.mark.parametrize("kind", ["full", "random", "rising", "falling"])
@pytest.mark.parametrize("threshold", [1e-6, 1e-3, 0.3])
def test_madelung_unwrap_matches_per_node_loop(kind, threshold):
    for n in (8, 16, 32, 64, 128, 256, 1024):
        for seed in range(12):
            assert_same_madelung(madelung_wave(kind, n, seed), threshold)


@pytest.mark.parametrize("mask", [
    "1" * 8,                     # full support, one run
    "10000001", "11000111",      # a run wrapping round the end
    "01000000", "00000001",      # single-node runs at either end
    "10101010", "01010101",      # only single-node runs
    "01111110", "11110000",      # one run, not wrapping
])
@pytest.mark.parametrize("anchor", ["first", "last", "middle"])
def test_madelung_unwrap_edge_runs(mask, anchor):
    on = np.array([c == "1" for c in mask])
    n = len(on)
    pos = np.arange(n, dtype=float)
    # the run that wraps round the end is ordered from its first node
    pos[on & (np.arange(n) < np.argmin(on))] += n
    rise = {"first": -pos, "last": pos, "middle": -np.abs(pos - pos[on].mean())}[anchor]
    amp = np.where(on, 2.0 + rise / (2 * n), 1e-4)
    phase = np.array([3.0, -3.0, 0.1, 3.1, -3.1, -0.2, 2.9, -2.9])
    u = snls.WaveField(GridSpec(1, n, PERIOD), amp * np.exp(1j * phase))
    assert_same_madelung(u, 1e-3)
    got = snls.madelung(u, 1e-3)
    run_count = int(np.sum(on & ~np.roll(on, 1))) or 1
    assert got.n_components == run_count


def test_madelung_unwrap_of_an_empty_or_flat_mask():
    grid = GridSpec(1, 8, PERIOD)
    for values in (np.zeros(8), np.exp(1j * np.arange(8.0))):
        u = snls.WaveField(grid, values)
        for threshold in (1e-6, 1.5):  # above 1 nothing passes unless rho is 0
            assert_same_madelung(u, threshold)
