"""The sampled march: the conditional kinetic ensemble and both density
push-forwards keep only the states they read, and must equal, bit for bit,
the same quantities read off the public flows that store every step."""

import itertools

import numpy as np
import pytest

from conftest import traced_peak_mib
from wzflow import density, noise, vlasov
from wzflow.errors import ConfigurationError, DiffeomorphismLostError, DomainError
from wzflow.fields import DensityField, GridSpec
from wzflow.phase import (
    FlowResult,
    HamiltonianSpec,
    PhaseState,
    _wz_integrate,
    _wz_times,
    scalar_potential,
    variational_flow,
    wz_flow,
)

GRID = GridSpec(1, 256, 20.0, origin=-10.0)
RHO0 = DensityField.normalized(GRID, np.exp(-0.5 * GRID.axis() ** 2))


def pendulum(eta=1.0, domain="euclidean"):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds, d2sigma=d2s,
                           eta=eta, domain=domain)


def affine(eta=1.0, nan_after=None):
    """f = x^2/2, sigma = x; with ``nan_after`` the force turns NaN after that
    many evaluations (4 per RK4 step), so the flow stops at a known step."""
    calls = itertools.count()

    def df(x):
        return x if nan_after is None or next(calls) < nan_after else np.full_like(x, np.nan)

    return HamiltonianSpec(dim=1, f=lambda x: 0.5 * x[..., 0] ** 2, df=df,
                           d2f=lambda x: np.ones(x.shape + (1,)), sigma=lambda x: x[..., 0],
                           dsigma=np.ones_like, d2sigma=lambda x: np.zeros(x.shape + (1,)),
                           eta=eta)


def mesh(seed, T=1.0, level=8, delta=2.0 ** -5):
    return noise.WongZakaiMesh(noise.sample_brownian(seed=seed, T=T, level=level), delta)


def ensemble(seed, n=200):
    rng = np.random.default_rng(seed)
    return vlasov.PhaseEnsemble(rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))


def storing_march(spec, y, mesh, substeps_per_cell, at=None, watch=None):
    """_wz_integrate rebuilt from the public flows, which store every step."""
    state = PhaseState(y[0], y[1])
    if len(y) == 3:
        flow = variational_flow(spec, state, mesh, substeps_per_cell=substeps_per_cell, J0=y[2])
    else:
        flow = wz_flow(spec, state, mesh, substeps_per_cell)
    rows = sorted({noise.time_index(_wz_times(mesh, substeps_per_cell), t) for t in at})
    seen = range(min(rows[-1] + 1, len(flow.times)))
    if watch is not None:
        for j in seen:
            watch(flow.times[j], [flow.xs[j], flow.ps[j], flow.jacobians[j]])
    kept = [r for r in rows if r in seen]
    jacobians = None if flow.jacobians is None else flow.jacobians[kept]
    return FlowResult(flow.times[kept], flow.xs[kept], flow.ps[kept], flow.h0[kept],
                      flow.h1[kept], spec.dim, jacobians=jacobians)


def outcome(call):
    """The arrays a call returns, or the class, message and loss time it raises."""
    try:
        r = call()
    except (DomainError, DiffeomorphismLostError) as e:
        return type(e), str(e), getattr(e, "loss_time", None)
    if isinstance(r, list):  # evolve_conditional
        return [(e.x, e.p, e.time) for e in r]
    return r.density.values, r.renorm_factor, r.stderr


def same(a, b):
    """Equal with sign bits: arrays through their bytes, containers item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(b, np.ndarray) and isinstance(a, np.ndarray)
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def against_storing(monkeypatch, call):
    """(sampled, storing): the outcome of call, then of call on the storing march."""
    sampled = outcome(call)
    with monkeypatch.context() as m:
        m.setattr(density, "_wz_integrate", storing_march)
        m.setattr(vlasov, "_wz_integrate", storing_march)
        return sampled, outcome(call)


# ---------------------------------------------------------------------------
# the march itself

def test_sampled_march_stores_the_named_rows_and_stops_after_the_last():
    spec, m = pendulum(), mesh(0)
    calls = itertools.count()
    df = spec.df
    counted = HamiltonianSpec(**{**spec.__dict__, "df": lambda x: (next(calls), df(x))[1]})
    state = PhaseState(np.linspace(-1, 1, 5)[:, None], np.zeros((5, 1)))
    y = [np.array(state.x), np.array(state.p)]
    sampled = _wz_integrate(counted, y, m, 2, at=[0.5, 0.25, 0.5])
    assert next(calls) == 4 * 32  # 32 RK4 steps reach t = 0.5, 4 force calls each
    full = wz_flow(spec, state, m, 2)
    rows = [16, 32]
    for name in ("times", "xs", "ps", "h0", "h1"):
        assert same(getattr(sampled, name), getattr(full, name)[rows]), name


def test_sample_time_off_the_step_grid_raises_before_the_march():
    calls = itertools.count()
    spec = HamiltonianSpec(dim=1, df=lambda x: (next(calls), x)[1])
    with pytest.raises(ConfigurationError, match="t=0.3 does not align"):
        vlasov.evolve_conditional(spec, ensemble(0), mesh(0), 1, [0.0, 0.3])
    assert next(calls) == 0


def test_watch_sees_every_state_the_march_reaches():
    seen = []
    y = [np.zeros((3, 1)), np.ones((3, 1))]
    _wz_integrate(pendulum(), y, mesh(1), 1, at=[0.125], watch=lambda t, y: seen.append(t))
    assert seen == list(_wz_times(mesh(1), 1)[:5])


# ---------------------------------------------------------------------------
# bitwise against the storing public flows

@pytest.mark.parametrize("domain", ["euclidean", "torus"])
@pytest.mark.parametrize("substeps", [1, 3])
def test_evolve_conditional_equals_the_storing_flow(domain, substeps):
    spec, m, e0 = pendulum(domain=domain), mesh(3), ensemble(3)
    times = [1.0, 0.0, 0.5, 0.5, 0.125]
    series = vlasov.evolve_conditional(spec, e0, m, substeps, times)
    flow = wz_flow(spec, PhaseState(e0.x, e0.p), m, substeps)
    for t, e in zip(times, series):
        i = noise.time_index(flow.times, t)
        assert same(e.x, flow.xs[i]) and same(e.p, flow.ps[i])
        assert e.time == flow.times[i]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("times", [[0.0, 0.5, 1.0], [0.0, 0.125]], ids=["before", "after"])
def test_evolve_conditional_on_a_flow_gone_nonfinite(monkeypatch, times):
    # the force is NaN from the 41st step (t = 0.3203125) on
    m = mesh(2, delta=2.0 ** -4)
    sampled, storing = against_storing(
        monkeypatch, lambda: vlasov.evolve_conditional(affine(nan_after=160), ensemble(2),
                                                       m, 8, times))
    assert same(sampled, storing)
    assert (sampled[0] is DomainError) == (times[-1] > 0.32)


@pytest.mark.parametrize("seed", [0, 3])
def test_pushforwards_equal_the_storing_flows(monkeypatch, seed):
    m = mesh(seed, T=0.5, level=6, delta=0.5 * 2.0 ** -4)
    for call in (
        lambda: density.pushforward_jacobian(affine(), RHO0, m, t=0.5),
        lambda: density.pushforward_jacobian(affine(), RHO0, m, t=0.25, substeps_per_cell=3),
        lambda: density.pushforward_jacobian(affine(), RHO0, m, t=0.5, det_threshold=0.9),
        lambda: density.pushforward_jacobian(affine(), RHO0, m, t=0.25, det_threshold=1.0),
        lambda: density.pushforward_mc(affine(), RHO0, m, 0.5, 2000, seed=seed),
        lambda: density.pushforward_mc(affine(), RHO0, m, 0.0, 2000, seed=seed),
    ):
        sampled, storing = against_storing(monkeypatch, call)
        assert same(sampled, storing)


def test_pushforward_loss_time_equals_the_storing_flow(monkeypatch):
    # the setup of test_diffeo_loss_raises: eta = 0, all characteristics focus at pi/2
    path = noise.sample_brownian(seed=3, T=2.0, level=6)
    m = noise.WongZakaiMesh(path, delta=2.0 * 2.0 ** -4)
    sampled, storing = against_storing(
        monkeypatch, lambda: density.pushforward_jacobian(affine(eta=0.0), RHO0, m, t=1.625))
    assert same(sampled, storing)
    assert sampled[0] is DiffeomorphismLostError
    assert sampled[2] == 1.578125


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t,raised", [
    (0.125, None),  # the flow goes NaN after t
    (1.875, DomainError),  # NaN at t = 1.75, after the loss at 1.578125: DomainError first
    (1.5, None),  # before both
    (1.625, DiffeomorphismLostError),  # after the loss, before the NaN
])
def test_pushforward_jacobian_error_order(monkeypatch, t, raised):
    path = noise.sample_brownian(seed=3, T=2.0, level=6)
    m = noise.WongZakaiMesh(path, delta=2.0 * 2.0 ** -4)
    sampled, storing = against_storing(monkeypatch, lambda: density.pushforward_jacobian(
        affine(eta=0.0, nan_after=4 * 111), RHO0, m, t=t))
    assert same(sampled, storing)
    assert (sampled[0] if raised else None) is raised


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t,raised", [(0.125, None), (1.875, DomainError)])
def test_pushforward_mc_on_a_flow_gone_nonfinite(monkeypatch, t, raised):
    path = noise.sample_brownian(seed=3, T=2.0, level=6)
    m = noise.WongZakaiMesh(path, delta=2.0 * 2.0 ** -4)
    sampled, storing = against_storing(monkeypatch, lambda: density.pushforward_mc(
        affine(eta=0.0, nan_after=4 * 111), RHO0, m, t, 1000, seed=1))
    assert same(sampled, storing)
    assert (sampled[0] if raised else None) is raised


# ---------------------------------------------------------------------------
# memory: the marches hold the sampled states, not the trajectory

@pytest.mark.parametrize("substeps", [8, 16])
def test_sampled_marches_hold_no_trajectory(substeps):
    # CLI vlasov size (N = 1000, 9 samples, 256 steps at 8 substeps) and the
    # push-forward of the density benchmark (m = 1024 characteristics); storing
    # every step took 8.0 and 10.0 MiB at 8 substeps, twice that at 16
    e0, m = ensemble(0, n=1000), mesh(0)
    pm = mesh(0, T=0.5, level=6, delta=0.5 * 2.0 ** -4)
    kinetic = traced_peak_mib(lambda: vlasov.evolve_conditional(
        pendulum(), e0, m, substeps, np.linspace(0.0, 1.0, 9)))
    push = traced_peak_mib(lambda: density.pushforward_jacobian(
        affine(), RHO0, pm, t=0.5, substeps_per_cell=substeps))
    assert kinetic < 4.0 and push < 4.0, (kinetic, push)
