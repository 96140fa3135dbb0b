"""The four benchmark workloads.

A workload is a loop of identical-size operations ("ops") that call wzflow's
public API in-process.  Each workload names its single wzflow ``entry``
module, its ``work_unit`` and the number of fresh ``workers`` an end-to-end
run starts (each gives one ``setup_s`` and one ``first_op_s`` sample, so
workloads with short ops get more), and has

* ``setup(size)``: imports its single entry module and builds the inputs that
  every op shares;
* ``prepare(ctx, op_seed)``: the per-op inputs, built outside the timed region;
* ``run(ctx, inputs)``: the timed op;
* ``check(ctx, inputs, result)``: properties that hold for any seed; an empty
  list means the op passed;
* ``key_numbers(result, inputs)``: floats compared with reference values
  recorded at the default seed;
* ``finish(ctx, inputs, result)``: releases what the op left behind.

Nothing here imports wzflow at module level: ``setup`` does, so the worker can
time the import.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

# the seed whose ops are compared with benchmarks/reference.json
REFERENCE_SEED = 0

# scratch space inside the checkout: CLI output directories, spans, records
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out")

# per-op seeds are spaced so that the seed + r ranges a study consumes
# internally (30 replications, 5 paths) never overlap between ops
OP_SEED_STRIDE = 100


def op_seed(seed: int, index: int) -> int:
    return 10_000 * seed + OP_SEED_STRIDE * index


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _floats(a) -> list:
    return [float(v) for v in np.ravel(np.asarray(a, dtype=float))]


# ---------------------------------------------------------------------------

class PhaseStudy:
    """Strong-order study of the noisy pendulum: Wong-Zakai RK4 at six delta
    levels against a Stratonovich Heun reference, batch 100."""

    name = "phase_study"
    entry = "wzflow.studies"
    work_unit = "path-steps"
    workers = 6
    SIZES = {
        "full": dict(deltas=[2.0 ** -k for k in range(4, 10)], M=100, T=1.0,
                     dt=2.0 ** -12, order_band=(0.35, 0.65)),
        "smoke": dict(deltas=[2.0 ** -k for k in range(3, 6)], M=16, T=1.0,
                      dt=2.0 ** -8, order_band=(0.2, 0.8)),
    }

    def setup(self, size):
        import wzflow.studies as studies
        from wzflow.phase import HamiltonianSpec, PhaseState, scalar_potential

        cfg = self.SIZES[size]
        f, df, d2f = scalar_potential(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
        s, ds, d2s = scalar_potential(np.sin, np.cos, lambda x: -np.sin(x))
        spec = HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds,
                               d2sigma=d2s, eta=1.0)
        return dict(cfg, studies=studies, payload={"spec": spec, "state0": PhaseState([0.3], [0.7])})

    def work_per_op(self, ctx):
        substeps = 8
        wz = sum(int(round(ctx["T"] / d)) * substeps for d in ctx["deltas"])
        return ctx["M"] * (int(round(ctx["T"] / ctx["dt"])) + wz)

    def prepare(self, ctx, seed):
        return {"seed": seed}

    def run(self, ctx, inputs):
        return ctx["studies"].strong_convergence_study(
            "phase_flow", ctx["payload"], ctx["deltas"], ctx["M"], ctx["T"],
            ctx["dt"], seed=inputs["seed"])

    def check(self, ctx, inputs, r):
        bad = []
        if not _finite(r.errors, r.ci_low, r.ci_high) or np.any(r.errors <= 0):
            bad.append("errors must be finite and positive")
        if np.any(r.ci_low > r.errors) or np.any(r.errors > r.ci_high):
            bad.append("ci_low <= rms <= ci_high violated")
        lo, hi = ctx["order_band"]
        if r.order is None or not np.isfinite(r.order) or not lo <= r.order <= hi:
            bad.append(f"order {r.order} outside [{lo}, {hi}]")
        return bad

    def key_numbers(self, r, inputs=None):
        return {"errors": _floats(r.errors), "ci_low": _floats(r.ci_low),
                "ci_high": _floats(r.ci_high), "order": [float(r.order)]}

    def finish(self, ctx, inputs, result):
        pass


# ---------------------------------------------------------------------------

class KineticResidual:
    """Second-order weak residual of the averaged kinetic equation: 30
    Stratonovich replications of a 1000-particle ensemble, 12-function
    battery evaluated at each of 5 sample times."""

    name = "kinetic_residual"
    entry = "wzflow.vlasov"
    work_unit = "particle-steps"
    workers = 5
    SIZES = {
        "full": dict(N=1000, R=30, T=0.5, dt=2.0 ** -7, n_samples=5),
        "smoke": dict(N=100, R=30, T=0.5, dt=2.0 ** -5, n_samples=5),
    }

    def setup(self, size):
        import wzflow.vlasov as vlasov
        from wzflow.phase import HamiltonianSpec, scalar_potential

        cfg = self.SIZES[size]
        s, ds, d2s = scalar_potential(lambda x: x, np.ones_like, np.zeros_like)
        spec = HamiltonianSpec(dim=1, sigma=s, dsigma=ds, d2sigma=d2s, eta=1.0)
        times = np.linspace(0.0, cfg["T"], cfg["n_samples"])
        return dict(cfg, vlasov=vlasov, spec=spec, sample_times=times)

    def work_per_op(self, ctx):
        return ctx["R"] * ctx["N"] * int(round(ctx["T"] / ctx["dt"]))

    def prepare(self, ctx, seed):
        rng = np.random.default_rng(seed)
        n = ctx["N"]
        ens = ctx["vlasov"].PhaseEnsemble(rng.normal(0, 0.5, (n, 1)), rng.normal(0, 0.5, (n, 1)))
        return {"seed": seed, "ensemble": ens}

    def run(self, ctx, inputs):
        return ctx["vlasov"].weak_residual_second_order(
            ctx["spec"], inputs["ensemble"], n_replications=ctx["R"], dt=ctx["dt"],
            sample_times=ctx["sample_times"], seed=inputs["seed"])

    def check(self, ctx, inputs, out):
        bad = []
        shape = (12, ctx["n_samples"] - 2)
        keys = ("lhs", "rhs", "residual", "ci_low", "ci_high")
        for k in keys:
            a = np.asarray(out[k])
            if a.shape != shape or not _finite(a):
                bad.append(f"{k} must be finite with shape {shape}, got {a.shape}")
        if bad:
            return bad
        lhs, rhs, res = out["lhs"], out["rhs"], out["residual"]
        scale = float(np.max(np.abs(lhs))) + float(np.max(np.abs(res)))
        if not np.allclose(rhs, lhs - res, rtol=1e-12, atol=1e-15 * scale):
            bad.append("rhs != lhs - residual")
        if np.any(out["ci_low"] > out["ci_high"]):
            bad.append("ci_low > ci_high")
        return bad

    def key_numbers(self, out, inputs=None):
        return {k: _floats(out[k]) for k in ("mean_residual", "mean_ci_low", "mean_ci_high")} | {
            "lhs_first": _floats(out["lhs"][:, 0]), "residual_last": _floats(out["residual"][:, -1])}

    def finish(self, ctx, inputs, result):
        pass


# ---------------------------------------------------------------------------

class SnlsStudy:
    """Wong-Zakai noise refinement of the cubic stochastic NLS: five paths,
    four delta levels against the finest, split-step spectral steps."""

    name = "snls_study"
    entry = "wzflow.snls"
    work_unit = "grid-point-steps"
    workers = 5
    SIZES = {
        "full": dict(n=256, T=1.0, deltas=[2.0 ** -k for k in range(3, 8)],
                     dt=2.0 ** -8, paths=5),
        "smoke": dict(n=32, T=1.0, deltas=[2.0 ** -k for k in range(2, 5)],
                      dt=2.0 ** -5, paths=3),
    }

    def setup(self, size):
        import wzflow.snls as snls
        from wzflow.fields import GridSpec

        cfg = self.SIZES[size]
        g = GridSpec(1, cfg["n"], 2 * np.pi)
        x = g.axis()
        u0 = snls.WaveField(g, (1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex))
        modes = (
            (lambda y: 0.5 * np.cos(y), lambda y: -0.5 * np.sin(y)),
            (lambda y: 0.3 * np.sin(2 * y), lambda y: 0.6 * np.cos(2 * y)),
        )
        return dict(cfg, snls=snls, u0=u0, modes=modes)

    def work_per_op(self, ctx):
        steps = int(round(ctx["T"] / ctx["dt"]))
        return ctx["paths"] * len(ctx["deltas"]) * steps * ctx["n"]

    def prepare(self, ctx, seed):
        return {"seed": seed}

    def run(self, ctx, inputs):
        return ctx["snls"].wz_convergence_study(
            1.0, lambda s: s, lambda s: 0.5 * s ** 2, ctx["modes"], ctx["u0"],
            ctx["T"], ctx["deltas"], ctx["dt"], ctx["paths"], seed=inputs["seed"])

    def check(self, ctx, inputs, out):
        # adjacent levels are not compared: with five paths their RMS errors
        # can invert by chance (op seed 4070900 gave 0.0485, 0.0510, 0.0235,
        # 0.0105); the coarsest and finest coarse levels are eight times apart
        # in delta, so their expected ratio is 8**order (about 5 at order 0.77)
        rms = np.asarray(out["rms_errors"], dtype=float)
        bad = []
        if rms.size != len(ctx["deltas"]) - 1 or not _finite(rms) or np.any(rms <= 0):
            bad.append("rms errors must be finite and positive, one per coarse level")
        elif not rms[-1] < rms[0]:
            bad.append(f"finest coarse level's rms error not below the coarsest: {rms}")
        order = out["order"]
        if order is None or not np.isfinite(order) or order <= 0:
            bad.append(f"fitted order {order} is not positive")
        return bad

    def key_numbers(self, out, inputs=None):
        return {"rms_errors": _floats(out["rms_errors"]), "order": [float(out["order"])]}

    def finish(self, ctx, inputs, result):
        pass


# ---------------------------------------------------------------------------

def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_column_sums(path):
    """Sum of every numeric cell per column; text cells are skipped."""
    sums = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            for j, cell in enumerate(line.rstrip("\n").split(",")):
                try:
                    v = float(cell)
                except ValueError:
                    continue
                if j >= len(sums):
                    sums.extend([0.0] * (j + 1 - len(sums)))
                sums[j] += v
    return sums


class CliDesk:
    """The six CLI subcommands in-process, each into a fresh directory, then
    the density-manifold residual and the push-forward Jacobian."""

    name = "cli_desk"
    entry = "wzflow.cli"
    work_unit = "subcommand-runs"
    workers = 6
    CONFIGS = {
        "full": {
            "flow": {"noise": {"T": 1.0, "level": 10, "delta": 2.0 ** -6}},
            "density": {"noise": {"T": 0.5, "level": 10, "delta": 2.0 ** -5}},
            "vlasov": {"noise": {"T": 1.0, "level": 8, "delta": 2.0 ** -5}},
            "nls": {"T": 1.0, "dt": 2.0 ** -8, "driver": "wz_potential",
                    "noise": {"T": 1.0, "level": 10, "delta": 2.0 ** -4}},
            "bridge": {"T": 0.5, "dt": 2.0 ** -7,
                       "noise": {"T": 0.5, "level": 10, "delta": 2.0 ** -5}},
            "converge": {"deltas": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6], "M": 8, "T": 1.0},
        },
        "smoke": {
            "flow": {"noise": {"T": 1.0, "level": 6, "delta": 2.0 ** -4}},
            "density": {"grid": {"n": 16, "period": 2 * np.pi},
                        "noise": {"T": 0.25, "level": 4, "delta": 2.0 ** -4}},
            "vlasov": {"n_particles": 50, "noise": {"T": 1.0, "level": 5, "delta": 2.0 ** -3}},
            "nls": {"T": 0.25, "dt": 2.0 ** -6, "driver": "wz_potential",
                    "grid": {"n": 16, "period": 2 * np.pi},
                    "noise": {"T": 1.0, "level": 6, "delta": 2.0 ** -4}},
            "bridge": {"T": 0.25, "dt": 2.0 ** -6, "grid": {"n": 16, "period": 2 * np.pi},
                       "noise": {"T": 0.25, "level": 6, "delta": 2.0 ** -5}},
            "converge": {"deltas": [2.0 ** -3, 2.0 ** -4, 2.0 ** -5], "M": 4, "T": 1.0,
                         "dt": 2.0 ** -8},
        },
    }
    # density-manifold residual (n=128 grid, 9 snapshots) and push-forward
    # (n=256 grid): the acceptance-test setups
    EL = {"full": dict(n=128, sub=8), "smoke": dict(n=32, sub=4)}
    PUSH = {"full": dict(n=256), "smoke": dict(n=64)}

    def setup(self, size):
        import wzflow.cli as cli
        from wzflow import density, noise
        from wzflow.fields import DensityField, GridSpec, PotentialField
        from wzflow.phase import HamiltonianSpec, scalar_potential

        el = self.EL[size]
        g = GridSpec(1, el["n"], 1.0)
        x = g.axis()
        rho0 = DensityField.normalized(g, 1.0 + 0.2 * np.cos(2 * np.pi * x))
        phi0 = PotentialField.projected(g, 0.02 * np.sin(2 * np.pi * x))
        pg = GridSpec(1, self.PUSH[size]["n"], 20.0, origin=-10.0)
        px = pg.axis()
        f, df, d2f = scalar_potential(lambda y: 0.5 * y ** 2, lambda y: y, np.ones_like)
        s, ds, d2s = scalar_potential(lambda y: y, np.ones_like, np.zeros_like)
        aff = HamiltonianSpec(dim=1, f=f, df=df, d2f=d2f, sigma=s, dsigma=ds,
                              d2sigma=d2s, eta=1.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        return dict(
            cli=cli, density=density, noise=noise, sub=el["sub"], rho0=rho0, phi0=phi0,
            push_rho0=DensityField.normalized(pg, np.exp(-0.5 * px ** 2)), push_spec=aff,
            configs={k: json.dumps(v) for k, v in self.CONFIGS[size].items()},
            tmp=tempfile.mkdtemp(prefix="cli_desk_", dir=OUT_DIR),
        )

    def work_per_op(self, ctx):
        return len(ctx["configs"])

    def prepare(self, ctx, seed):
        base = os.path.join(ctx["tmp"], f"op{seed}")
        os.makedirs(base, exist_ok=False)
        return {"seed": seed, "dirs": {k: os.path.join(base, k) for k in ctx["configs"]},
                "base": base}

    def run(self, ctx, inputs):
        seed = inputs["seed"]
        codes = {}
        for sub, cfg in ctx["configs"].items():
            codes[sub] = ctx["cli"].main([sub, "--config", cfg, "--seed", str(seed),
                                          "--out", inputs["dirs"][sub], "--quiet"])
        density, noise = ctx["density"], ctx["noise"]
        path = noise.sample_brownian(seed=seed, T=0.25, level=2)
        mesh = noise.WongZakaiMesh(path, delta=0.25 * 2.0 ** -2)
        sub = ctx["sub"]
        traj = density.whf_evolve(ctx["rho0"], ctx["phi0"], mesh, density.WhfSpec(),
                                  substeps_per_cell=sub)
        stride = sub // 2
        el = density.el_residual(traj.rhos[::stride], traj.times[::stride], mesh)
        ppath = noise.sample_brownian(seed=seed, T=0.5, level=6)
        pmesh = noise.WongZakaiMesh(ppath, delta=0.5 * 2.0 ** -4)
        push = density.pushforward_jacobian(ctx["push_spec"], ctx["push_rho0"], pmesh, t=0.5)
        return {"codes": codes, "el": el, "push": push}

    @staticmethod
    def manifest(out_dir):
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            return json.load(fh)

    def check(self, ctx, inputs, out):
        bad = [f"{sub} exited {c}" for sub, c in out["codes"].items() if c != 0]
        for sub, d in inputs["dirs"].items():
            try:
                man = self.manifest(d)
            except (OSError, ValueError) as e:
                bad.append(f"{sub}: no readable manifest ({e})")
                continue
            if man.get("status") != "ok":
                bad.append(f"{sub}: manifest status {man.get('status')!r}")
            for art in man.get("artifacts", []):
                p = os.path.join(d, art["path"])
                if not os.path.exists(p) or sha256_file(p) != art["sha256"]:
                    bad.append(f"{sub}: sha256 mismatch for {art['path']}")
        el, push = out["el"], out["push"]
        if not _finite(el["continuity"], el["hjb"]):
            bad.append("density residuals not finite")
        if not _finite(push.density.values, push.renorm_factor):
            bad.append("push-forward density not finite")
        return bad

    def key_numbers(self, out, inputs):
        nums = {}
        for sub, d in inputs["dirs"].items():
            for name in sorted(os.listdir(d)):
                if name.endswith(".csv"):
                    nums[f"{sub}/{name}"] = csv_column_sums(os.path.join(d, name))
        nums["el_continuity"] = _floats(out["el"]["continuity"])
        nums["el_hjb"] = _floats(out["el"]["hjb"])
        nums["push_density_sum"] = [float(np.sum(out["push"].density.values))]
        nums["push_renorm"] = [float(out["push"].renorm_factor)]
        return nums

    def artifact_hashes(self, inputs):
        """sha256 of every artifact listed in the manifests."""
        return {f"{sub}/{a['path']}": a["sha256"]
                for sub, d in inputs["dirs"].items() for a in self.manifest(d)["artifacts"]}

    def bytes_written(self, inputs):
        return sum(os.path.getsize(os.path.join(dp, f))
                   for dp, _, files in os.walk(inputs["base"]) for f in files)

    def finish(self, ctx, inputs, result):
        shutil.rmtree(inputs["base"], ignore_errors=True)

    def teardown(self, ctx):
        shutil.rmtree(ctx["tmp"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (PhaseStudy(), KineticResidual(), SnlsStudy(), CliDesk())}


def compare_reference(ref: dict, got: dict, rtol=1e-9) -> list:
    """Mismatches between recorded and measured key numbers (rtol, plus an
    absolute floor at round-off of the largest value in each entry)."""
    bad = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            bad.append(f"reference key {key} missing or resized")
            continue
        w, h = np.asarray(want), np.asarray(have)
        atol = 1e-14 * float(np.max(np.abs(w))) if w.size else 0.0
        if not np.allclose(h, w, rtol=rtol, atol=atol):
            bad.append(f"{key} differs from reference beyond rtol {rtol}")
    return bad
