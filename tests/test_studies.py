import json
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from wzflow import noise, studies
from wzflow.density import Functional, WhfSpec
from wzflow.errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
)
from wzflow.fields import DensityField, GridSpec, PotentialField
from wzflow.phase import HamiltonianSpec, PhaseState, scalar_potential
from wzflow.studies import (
    ConvergenceReport,
    bootstrap_rms_ci,
    fit_order,
    probability_convergence_study,
    probability_table_to_csv,
    report_to_csv,
    report_to_json,
    strong_convergence_study,
    wilson_interval,
)


def pendulum_spec(eta=1.0):
    f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
    return HamiltonianSpec(dim=1, f=f, df=df, sigma=s, dsigma=ds, eta=eta,
                           d2f=d2f, d2sigma=d2s)


def additive_spec(eta=1.0):
    s, ds, _ = scalar_potential(lambda x: x, np.ones_like)
    return HamiltonianSpec(dim=1, sigma=s, dsigma=ds, eta=eta)


def free_spec():
    return HamiltonianSpec(dim=1, eta=0.0)


STATE = PhaseState([0.3], [0.7])


class TestFitOrder:
    def test_exact_half_order(self):
        deltas = [2.0 ** -k for k in range(3, 9)]
        slope, intercept, stderr = fit_order([(d, d ** 0.5) for d in deltas])
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_linear_with_prefactor(self):
        deltas = [0.5, 0.25, 0.125, 0.0625]
        slope, intercept, _ = fit_order([(d, 3 * d) for d in deltas])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(3), abs=1e-10)

    def test_guards(self):
        with pytest.raises(InsufficientDataError):
            fit_order([(0.5, 0.1)])
        with pytest.raises(DomainError):
            fit_order([(0.5, 0.1), (0.25, 0.0), (0.125, 0.01)])

    def test_two_points_fit_exactly_without_stderr(self):
        slope, intercept, stderr = fit_order([(0.5, 0.1), (0.25, 0.05)])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(np.log(0.2), abs=1e-12)
        assert stderr is None

    def test_stderr_coverage(self):
        rng = np.random.default_rng(11)
        deltas = np.array([2.0 ** -k for k in range(3, 9)])
        hits = 0
        for _ in range(100):
            errs = deltas ** 0.5 * (1 + 0.1 * rng.standard_normal(deltas.size))
            slope, _, stderr = fit_order(list(zip(deltas, errs)))
            if abs(slope - 0.5) <= 2 * stderr:
                hits += 1
        assert hits >= 90


class TestIntervals:
    def test_wilson_against_scipy(self):
        for k, n in ((0, 50), (5, 10), (50, 50), (37, 120)):
            lo, hi = wilson_interval(k, n)
            ref = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
            assert lo == pytest.approx(ref.low, abs=1e-10)
            assert hi == pytest.approx(ref.high, abs=1e-10)

    def test_bootstrap_degenerate(self):
        rng = np.random.default_rng(0)
        lo, hi = bootstrap_rms_ci(np.full(50, 2.0), 200, rng)
        assert lo == pytest.approx(2.0) and hi == pytest.approx(2.0)

    @pytest.mark.parametrize("n_bootstrap", [0, -3])
    def test_bootstrap_needs_a_draw(self, n_bootstrap):
        with pytest.raises(ConfigurationError, match="n_bootstrap"):
            bootstrap_rms_ci(np.full(5, 2.0), n_bootstrap, np.random.default_rng(0))

    def test_bootstrap_needs_a_sample(self):
        with pytest.raises(InsufficientDataError):
            bootstrap_rms_ci(np.array([]), 200, np.random.default_rng(0))


class TestPhaseStudies:
    def test_zero_noise_degenerate(self):
        report = strong_convergence_study(
            "phase_flow",
            {"spec": free_spec(), "state0": STATE},
            deltas=[2.0 ** -2, 2.0 ** -3, 2.0 ** -4],
            M=8, T=1.0, dt=2.0 ** -7, seed=1,
        )
        assert report.degenerate
        assert report.order is None
        assert np.max(report.errors) < 1e-10

    def test_additive_exact_reference_half_order(self):
        report = strong_convergence_study(
            "phase_flow",
            {"spec": additive_spec(), "state0": STATE, "reference": "exact_additive"},
            deltas=[2.0 ** -k for k in range(5, 11)],
            M=40, T=1.0, dt=2.0 ** -6, seed=5,
        )
        assert not report.degenerate
        assert 0.4 <= report.order <= 0.6
        assert np.all(np.diff(report.errors) < 0)

    def test_pendulum_smoke_order(self):
        report = strong_convergence_study(
            "phase_flow",
            {"spec": pendulum_spec(), "state0": STATE},
            deltas=[2.0 ** -k for k in range(4, 8)],
            M=24, T=1.0, dt=2.0 ** -10, seed=2,
        )
        assert 0.3 <= report.order <= 0.75
        assert np.all(report.ci_low <= report.errors)
        assert np.all(report.errors <= report.ci_high)

    def test_memory_does_not_store_the_reference(self):
        # a stored reference trajectory costs about 6x the Brownian path's
        # bytes; marching it in step with the levels keeps the peak near 2x
        M, bits = 50, 14
        tracemalloc.start()
        try:
            studies._per_path_errors(
                "phase_flow", {"spec": pendulum_spec(), "state0": STATE},
                [2.0 ** -k for k in range(3, 7)], M, 1.0, 2.0 ** -bits, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (2 ** bits + 1) * M * 8

    def test_pure_function_of_seed(self):
        kwargs = dict(
            system="phase_flow",
            payload={"spec": pendulum_spec(), "state0": STATE},
            deltas=[2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
            M=6, T=1.0, dt=2.0 ** -9, seed=9,
        )
        a = strong_convergence_study(**kwargs)
        b = strong_convergence_study(**kwargs)
        assert np.array_equal(a.errors, b.errors)
        assert a.order == b.order

    def test_non_dyadic_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            strong_convergence_study(
                "phase_flow", {"spec": free_spec(), "state0": STATE},
                deltas=[0.3, 0.15, 0.075], M=4, T=1.0, dt=2.0 ** -6,
            )

    def test_zero_substeps_rejected(self):
        with pytest.raises(ConfigurationError):
            strong_convergence_study(
                "phase_flow", {"spec": free_spec(), "state0": STATE},
                deltas=[0.25, 0.125, 0.0625], M=4, T=1.0, dt=2.0 ** -6, substeps_per_cell=0,
            )

    @pytest.mark.parametrize("n_bootstrap", [0, -3])
    def test_nonpositive_bootstrap_rejected(self, n_bootstrap):
        with pytest.raises(ConfigurationError, match="n_bootstrap"):
            strong_convergence_study(
                "phase_flow", {"spec": free_spec(), "state0": STATE},
                deltas=[0.25, 0.125, 0.0625], M=4, T=1.0, dt=2.0 ** -6, n_bootstrap=n_bootstrap,
            )

    def test_failure_census(self):
        errors = np.full((10, 2), 0.1)
        errors[:5, 1] = np.nan
        with pytest.raises(EvaluationError):
            studies._failure_check(errors, {}, [0.5, 0.25])


class TestProbabilityStudies:
    def test_m_guard(self):
        with pytest.raises(ConfigurationError):
            probability_convergence_study(
                "phase_flow", {"spec": free_spec(), "state0": STATE},
                deltas=[0.5, 0.25, 0.125], eps_list=[0.1], M=50, T=1.0, dt=2.0 ** -6,
            )

    def test_zero_noise_and_large_eps(self):
        table = probability_convergence_study(
            "phase_flow", {"spec": free_spec(), "state0": STATE},
            deltas=[0.5, 0.25, 0.125], eps_list=[1e-6, 100.0],
            M=100, T=1.0, dt=2.0 ** -6, seed=3,
        )
        assert np.all(table["freq"] == 0.0)

    def test_monotone_in_delta_within_ci(self):
        table = probability_convergence_study(
            "phase_flow",
            {"spec": additive_spec(), "state0": STATE, "reference": "exact_additive"},
            deltas=[2.0 ** -2, 2.0 ** -4, 2.0 ** -6],
            eps_list=[0.05, 0.2],
            M=100, T=1.0, dt=2.0 ** -6, seed=4,
        )
        # refinement cannot raise the exceedance frequency beyond CI overlap
        for i in range(table["eps"].size):
            for j in range(table["deltas"].size - 1):
                assert table["freq"][j + 1, i] <= table["ci_high"][j, i] + 1e-12


class TestOtherSystems:
    def test_snls_delegation(self):
        from wzflow.snls import WaveField as Wave

        grid = GridSpec(1, 64, 2 * np.pi)
        u0 = Wave(grid, (1.0 + 0.2 * np.cos(grid.axis())).astype(complex))
        modes = (
            (lambda x: 0.5 * np.cos(x), lambda x: -0.5 * np.sin(x)),
        )
        report = strong_convergence_study(
            "snls",
            {"lam": 1.0, "f": lambda s: s, "F": lambda s: 0.5 * s ** 2,
             "modes": modes, "u0": u0},
            deltas=[2.0 ** -k for k in range(2, 7)],
            M=4, T=1.0, dt=2.0 ** -8, seed=6,
        )
        assert report.deltas.size == 4
        assert np.all(np.diff(report.errors) < 0)
        assert report.order is not None and report.order > 0.2

    def test_whf_errors_shrink(self):
        grid = GridSpec(1, 64, 2 * np.pi)
        rho0 = DensityField.normalized(grid, 1.0 + 0.2 * np.cos(grid.axis()))
        phi0 = PotentialField.projected(grid, 0.05 * np.sin(grid.axis()))
        wspec = WhfSpec(
            noise_energy=Functional(potential=np.sin(grid.axis())),
            eta=0.5,
        )
        report = strong_convergence_study(
            "wasserstein.generalized",
            {"rho0": rho0, "phi0": phi0, "wspec": wspec},
            deltas=[2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
            M=3, T=0.5, dt=None, seed=7,
        )
        assert report.deltas.size == 3
        assert np.all(np.diff(report.errors) < 0)


class TestPersistence:
    def _report(self):
        deltas = np.array([0.5, 0.25, 0.125])
        return ConvergenceReport(
            deltas=deltas, errors=deltas ** 0.5,
            ci_low=0.9 * deltas ** 0.5, ci_high=1.1 * deltas ** 0.5,
            order=0.5, order_stderr=0.01, intercept=0.0,
            degenerate=False, norm="test", metadata={"seed": 0},
        )

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "report.csv"
        report_to_csv(self._report(), p)
        rows = np.loadtxt(p, delimiter=",", skiprows=1)
        assert rows.shape == (3, 4)
        assert np.allclose(rows[:, 0], [0.5, 0.25, 0.125])

    def test_csv_bytes(self, tmp_path):
        report = ConvergenceReport(
            deltas=np.array([0.5, 0.1]), errors=np.array([1 / 3, 2.0]),
            ci_low=np.array([0.25, 1e-20]), ci_high=np.array([0.5, 3.0]),
            order=None, order_stderr=None, intercept=None, degenerate=False, norm="test",
        )
        p = tmp_path / "report.csv"
        report_to_csv(report, p)
        assert p.read_text() == (
            "delta,rms_error,ci_low,ci_high\n"
            "0.5,0.33333333333333331,0.25,0.5\n"
            "0.10000000000000001,2,9.9999999999999995e-21,3\n"
        )
        rows = np.loadtxt(p, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1], report.errors)  # .17g round-trips float64

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "report.json"
        report_to_json(self._report(), p)
        body = json.loads(p.read_text())
        assert body["order"] == 0.5
        assert body["deltas"] == [0.5, 0.25, 0.125]

    def test_probability_csv(self, tmp_path):
        table = {
            "deltas": np.array([0.5, 0.25]),
            "eps": np.array([0.1]),
            "freq": np.array([[0.2], [0.1]]),
            "ci_low": np.array([[0.1], [0.05]]),
            "ci_high": np.array([[0.3], [0.2]]),
        }
        p = tmp_path / "prob.csv"
        probability_table_to_csv(table, p)
        assert len(p.read_text().strip().splitlines()) == 3

    def test_probability_csv_bytes(self, tmp_path):
        table = {
            "deltas": np.array([0.5, 0.1]),
            "eps": np.array([0.2, 0.05]),
            "freq": np.array([[0.25, 0.5], [0.0, 1 / 3]]),
            "ci_low": np.array([[0.125, 0.25], [0.0, 0.2]]),
            "ci_high": np.array([[0.5, 0.75], [0.1, 0.5]]),
        }
        p = tmp_path / "prob.csv"
        probability_table_to_csv(table, p)
        assert p.read_text() == (
            "delta,eps,freq,ci_low,ci_high\n"
            "0.5,0.20000000000000001,0.25,0.125,0.5\n"
            "0.5,0.050000000000000003,0.5,0.25,0.75\n"
            "0.10000000000000001,0.20000000000000001,0,0,0.10000000000000001\n"
            "0.10000000000000001,0.050000000000000003,0.33333333333333331,0.20000000000000001,0.5\n"
        )
