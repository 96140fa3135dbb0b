"""Reference-scheme tests for the shared integrator core.

Each reference below is a plain per-step loop that spells out one scheme
(RK4 and the Stratonovich Heun step on (x, p, J), whose (x, p) part is the
plain phase-space flow, the RK4 field steps of the density-manifold flow and
the bridge, and the Strang split step of the stochastic NLS) with its own
stage arithmetic and cell-by-cell marching.  The integrators must agree with them bitwise, which is tighter
than any tolerance-based check.
"""

import numpy as np
import pytest

from wzflow import bridge, density, noise, phase, snls
from wzflow.fields import DensityField, GridSpec, PotentialField, grad_components
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


def ref_rk4_flow(spec, x, p, mesh, sub):
    """RK4 on (x, p, J), sub substeps per noise cell, cell by cell."""
    h = mesh.delta / sub
    x = spec.wrap(np.array(x, dtype=float))
    p = np.array(p, dtype=float)
    J = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    xs, ps, js = [x], [p], [J]
    for k in range(mesh.n_cells):
        xi = factor(mesh.cell_derivative(k), x.shape)
        for _ in range(sub):
            k1x, k1p = field(spec, x, p, xi)
            k1J = tangent(spec, x, p, xi, J)
            x2, p2, J2 = x + 0.5 * h * k1x, p + 0.5 * h * k1p, J + 0.5 * h * k1J
            k2x, k2p = field(spec, x2, p2, xi)
            k2J = tangent(spec, x2, p2, xi, J2)
            x3, p3, J3 = x + 0.5 * h * k2x, p + 0.5 * h * k2p, J + 0.5 * h * k2J
            k3x, k3p = field(spec, x3, p3, xi)
            k3J = tangent(spec, x3, p3, xi, J3)
            x4, p4, J4 = x + h * k3x, p + h * k3p, J + h * k3J
            k4x, k4p = field(spec, x4, p4, xi)
            k4J = tangent(spec, x4, p4, xi, J4)
            x = spec.wrap(x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x))
            p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
            J = J + h / 6.0 * (k1J + 2 * k2J + 2 * k3J + k4J)
            xs.append(x)
            ps.append(p)
            js.append(J)
    return np.array(xs), np.array(ps), np.array(js)


def ref_heun_flow(spec, x, p, path, dt):
    """Stratonovich Heun on (x, p, J) with the path's increments."""
    level = int(round(np.log2(path.T / dt)))
    incs = np.diff(path.at_level(level), axis=0)
    x = spec.wrap(np.array(x, dtype=float))
    p = np.array(p, dtype=float)
    J = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    xs, ps, js = [x], [p], [J]
    for inc in incs:
        db, dbJ = factor(inc, x.shape), factor(inc, J.shape)
        ax, ap = field(spec, x, p, 0.0)
        aJ = tangent(spec, x, p, 0.0, J)
        bx, bp = spec.grad_p_h1(x, p), -spec.grad_x_h1(x, p)
        bJ = tangent(spec, x, p, 1.0, J) - tangent(spec, x, p, 0.0, J)
        x1, p1, J1 = x + dt * ax + bx * db, p + dt * ap + bp * db, J + dt * aJ + bJ * dbJ
        ax2, ap2 = field(spec, x1, p1, 0.0)
        aJ2 = tangent(spec, x1, p1, 0.0, J1)
        bx2, bp2 = spec.grad_p_h1(x1, p1), -spec.grad_x_h1(x1, p1)
        bJ2 = tangent(spec, x1, p1, 1.0, J1) - tangent(spec, x1, p1, 0.0, J1)
        x = spec.wrap(x + 0.5 * dt * (ax + ax2) + 0.5 * (bx + bx2) * db)
        p = p + 0.5 * dt * (ap + ap2) + 0.5 * (bp + bp2) * db
        J = J + 0.5 * dt * (aJ + aJ2) + 0.5 * (bJ + bJ2) * dbJ
        xs.append(x)
        ps.append(p)
        js.append(J)
    return np.array(xs), np.array(ps), np.array(js)


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
    slopes = np.diff(mesh.node_values, axis=0) / mesh.delta
    assert np.array_equal(plain.xi_dot, np.repeat(slopes, sub, axis=0))


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


# ---------------------------------------------------------------------------
# field flows: RK4 on (rho, Phi) with clipping and mass renormalization

def ref_field_march(rhs, rho, phi, mesh, per_cell, dt, t_end, floor, dt_max_of):
    """RK4 field steps, per_cell per noise cell, until t reaches t_end."""
    grid = rho.grid
    r, s = rho.values, phi.values
    t, times, rs, ss, dts = 0.0, [0.0], [r], [s], []
    for k in range(mesh.n_cells):
        xi = float(mesh.cell_derivative(k).reshape(-1)[0])
        for _ in range(per_cell):
            if t >= t_end - 1e-12:
                return np.array(times), rs, ss, dts
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
            t += dt
            times.append(t)
            rs.append(r)
            ss.append(s)
    return np.array(times), rs, ss, dts


def smooth_fields(n=32):
    g = GridSpec(1, n, 2 * np.pi)
    x = g.axis()
    return (g, DensityField.normalized(g, 1.0 + 0.2 * np.cos(x)),
            PotentialField.projected(g, 0.05 * np.sin(x)))


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
        speed = float(np.max(np.abs(grad_components(g, s)[0])))
        return wspec.cfl * g.h / max(abs(1.0 + wspec.eta * xi) * speed, 1e-12)

    rhs = lambda xi, r, s: density._whf_rhs(g, wspec, xi, r, s)
    times, rs, ss, dts = ref_field_march(
        rhs, rho0, phi0, mesh, sub, dt, 0.5 if t_end is None else t_end,
        wspec.rho_floor, dt_max_of,
    )
    traj = density.whf_evolve(rho0, phi0, mesh, wspec, sub, t_end)
    assert np.array_equal(traj.times, times)
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.rhos, rs))
    assert all(np.array_equal(a.values, b) for a, b in zip(traj.phis, ss))
    assert [rep["dt_max"] for rep in traj.reports[1:]] == dts
    assert len(traj.rhos) == len(rs) == len(traj.reports)


@pytest.mark.parametrize("T,dt", [(0.5, 2.0 ** -7), (0.3, 2.0 ** -6)])
def test_bridge_flow_matches_reference(T, dt):
    g, rho0, phi0 = smooth_fields()
    a = lambda y: 0.3 + 0.1 * np.cos(y)
    da = lambda y: -0.1 * np.sin(y)
    mesh = noise.WongZakaiMesh(noise.sample_brownian(seed=6, T=0.5, level=7), 2.0 ** -4)
    spec = bridge.BridgeSpec(g, a, da, mesh, rho0, phi0)
    a_vals, da_vals = a(g.axis()), da(g.axis())
    k_band = 2 * np.pi * (g.n // 4) / g.period

    def dt_max_of(r, s, xi):
        speed = float(np.max(np.abs(grad_components(g, s)[0] + a_vals * xi)))
        return spec.cfl * min(g.h / max(speed, 1e-12), 2.8 / max(0.5 * k_band ** 2, 1e-12))

    rhs = lambda xi, r, s: bridge._rhs(g, a_vals, da_vals, xi, spec.rho_floor, r, s)
    per_cell = int(round(mesh.delta / dt))
    times, rs, ss, dts = ref_field_march(
        rhs, rho0, phi0, mesh, per_cell, dt, T, spec.rho_floor, dt_max_of
    )
    traj = bridge.bridge_flow(spec, T, dt)
    assert np.array_equal(traj.times, times)
    assert [st.t for st in traj.states] == list(times)
    assert all(np.array_equal(st.rho.values, b) for st, b in zip(traj.states, rs))
    assert all(np.array_equal(st.phi.values, b) for st, b in zip(traj.states, ss))
    assert [rep["dt_max"] for rep in traj.reports[1:]] == dts
    assert len(traj.states) == len(rs)


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
    if spec.driver in ("wz_potential", "strat_potential_limit"):
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
    assert np.array_equal(traj.times, times)
    assert all(np.array_equal(u.values, v) for u, v in zip(traj.waves, vs))
    assert len(traj.waves) == len(vs)
    ref_waves = [snls.WaveField(u0.grid, v) for v in vs]
    assert np.array_equal(traj.mass, [u.mass for u in ref_waves])
    assert np.array_equal(traj.energy, [snls.energy(spec, u) for u in ref_waves])
    t = 5 * dt
    assert np.array_equal(snls.step(spec, u0, t, dt).values, ref_snls_step(spec, u0.values, t, dt))


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
    assert np.array_equal(out["pathwise_monotone"], np.all(np.diff(errors, axis=1) <= 0, axis=1))
