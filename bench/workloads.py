"""The benchmark's workloads: run configurations and output checks.

Each workload is one of ``docs/examples/`` at the seed its acceptance
criterion uses, kept here so that a change to the examples does not
change what the benchmark measures.  Two are cut down so that a run fits
the benchmark's time budget; README.md gives the cuts and why.

The checks read a run's output directory and compare it with
computations of the benchmark's own: closed forms, a Gaussian sum and a
5-point finite-difference solve written here, never the program's
reference code.  Each returns a list of failure messages, empty when the
outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml


@dataclass(frozen=True)
class Outputs:
    """The files one run wrote, parsed."""

    summary: dict
    config: dict
    losses: np.ndarray  # the loss column of loss_history.csv
    kernels: dict  # column name -> values
    solution: dict  # column name -> values

    @classmethod
    def read(cls, out_dir) -> "Outputs":
        out_dir = Path(out_dir)
        _, loss_rows = _read_csv(out_dir / "loss_history.csv")
        return cls(
            summary=json.loads((out_dir / "summary.json").read_text()),
            config=yaml.safe_load((out_dir / "config.yaml").read_text()),
            losses=np.array([row[-1] for row in loss_rows], dtype=float),
            kernels=_columns(*_read_csv(out_dir / "kernels.csv")),
            solution=_columns(*_read_csv(out_dir / "solution.csv")),
        )


def _read_csv(path: Path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _columns(header, rows) -> dict:
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: values[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# references computed by the benchmark


def convdiff1_exact(x, nu: float):
    """u = (e^{x/nu} - 1) / (e^{1/nu} - 1), scaled by e^{-1/nu} against overflow."""
    x = np.asarray(x, dtype=float)
    return (np.exp((x - 1.0) / nu) - math.exp(-1.0 / nu)) / -math.expm1(-1.0 / nu)


def transported_gaussian(x, t: float, speed: float, nu: float):
    """The t = 0 profile exp(-(x + 0.3)^2 / (4 nu^2)) moved to x - speed * t."""
    x = np.asarray(x, dtype=float) - speed * t
    return np.exp(-((x + 0.3) ** 2) / (4.0 * nu * nu))


def poisson_fd(nu: float, n: int) -> np.ndarray:
    """5-point finite-difference solve of u_xx + u_yy = f on an n x n grid.

    f is the central Gaussian source exp(-|p - (0.5, 0.5)|^2 / (2 nu^2))
    / (2 pi nu^2) on the unit square, with u = 0 on the boundary.
    Returns u indexed [ix, iy], boundary included.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    h = 1.0 / (n - 1)
    inner = np.linspace(0.0, 1.0, n)[1:-1]
    x, y = np.meshgrid(inner, inner, indexing="ij")
    f = np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2.0 * nu * nu)) / (2.0 * math.pi * nu * nu)
    m = n - 2
    second = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / (h * h)
    eye = scipy.sparse.identity(m)
    laplacian = (scipy.sparse.kron(second, eye) + scipy.sparse.kron(eye, second)).tocsc()
    u = np.zeros((n, n))
    u[1:-1, 1:-1] = scipy.sparse.linalg.spsolve(laplacian, f.ravel()).reshape(m, m)
    return u


def gaussian_sum(kernels: dict, points: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """sum_k c_k exp(-sum_d (p_d - center_kd)^2 / (2 width_kd^2)) at each point."""
    axes = [name[len("center_"):] for name in kernels if name.startswith("center_")]
    centers = np.column_stack([kernels[f"center_{a}"] for a in axes])
    inv_two_var = 0.5 / np.column_stack([kernels[f"width_{a}"] for a in axes]) ** 2
    coeffs = kernels["coefficient"]
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        diff = points[lo:lo + chunk, None, :] - centers[None, :, :]
        out[lo:lo + chunk] = np.exp(-np.sum(diff * diff * inv_two_var, axis=2)) @ coeffs
    return out


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    evaluations: int  # rows of loss_history.csv: every seed is the same run

    exit_codes = (0,)

    def solves(self, out: Outputs) -> int:
        """Least-squares solves the run made, counted from its outputs."""
        return len(out.losses)

    def failed(self, out: Outputs) -> int:
        """Solves that gave no finite residual."""
        return int(np.sum(~np.isfinite(out.losses)))

    def check(self, out: Outputs, reference=None) -> list:
        """Failure messages of the checks every workload shares."""
        problems = []
        if len(out.losses) != self.evaluations:
            problems.append(f"loss_history.csv has {len(out.losses)} rows, expected {self.evaluations}")
        if out.summary["exit_code"] not in self.exit_codes:
            problems.append(f"exit code {out.summary['exit_code']} not in {self.exit_codes}")
        return problems

    def reference(self):
        """Reference data the checks need, computed once per benchmark run."""
        return None


def _min_loss_check(out: Outputs) -> list:
    best = float(np.min(out.losses))
    if out.summary["metrics"]["residual_loss"] != best:
        return [f"residual_loss {out.summary['metrics']['residual_loss']!r} is not the loss minimum {best!r}"]
    return []


class SharpLayer(Workload):
    # budget exhausted above loss_tol 1e-6 is the documented outcome (exit 4)
    exit_codes = (0, 4)

    def check(self, out, reference=None):
        problems = super().check(out) + _min_loss_check(out)
        nu = self.config["problem"]["nu"]
        err = float(np.max(np.abs(out.solution["predicted"] - convdiff1_exact(out.solution["x"], nu))))
        if not err <= 1e-3:
            problems.append(f"max error {err:.3g} against the closed form exceeds 1e-3")
        n_rbf = self.config["baseline"]["n_rbf"]
        expected = n_rbf + math.floor(0.5 * n_rbf + 0.5)
        if len(out.kernels["coefficient"]) != expected:
            problems.append(f"{len(out.kernels['coefficient'])} kernels, expected {expected}")
        return problems


class Poisson(Workload):
    GRID = 201

    def reference(self):
        return poisson_fd(self.config["problem"]["nu"], self.GRID)

    def check(self, out, reference=None):
        problems = super().check(out) + _min_loss_check(out)
        if reference is None:
            reference = self.reference()
        axis = np.linspace(0.0, 1.0, self.GRID)
        x, y = np.meshgrid(axis, axis, indexing="ij")
        u = gaussian_sum(out.kernels, np.column_stack([x.ravel(), y.ravel()]))
        rel = float(np.linalg.norm(u - reference.ravel()) / np.linalg.norm(reference))
        if not rel <= 1e-2:
            problems.append(f"relative L2 error {rel:.3g} against the 5-point solve exceeds 1e-2")
        n = len(out.kernels["coefficient"])
        if not 600 <= n <= 800:
            problems.append(f"{n} kernels, expected 600 to 800")
        return problems


class TransportMarch(Workload):
    def solves(self, out):
        tuning = out.config["advection"]["tuning_blocks"]
        return len(out.losses) * tuning + len(out.summary["block_losses"])

    def failed(self, out):
        tuning = out.config["advection"]["tuning_blocks"]
        blocks = np.asarray(out.summary["block_losses"], dtype=float)
        return int(np.sum(~np.isfinite(out.losses))) * tuning + int(np.sum(~np.isfinite(blocks)))

    def check(self, out, reference=None):
        problems = super().check(out)
        if len(out.losses):
            # the winning tuning evaluation's draws carry over verbatim to
            # the full march, so its first blocks give the loss it was tuned on
            tuning = out.config["advection"]["tuning_blocks"]
            replayed = max(out.summary["validation_losses"][:tuning])
            if replayed != float(np.min(out.losses)):
                problems.append(f"first {tuning} blocks give {replayed!r}, not the tuned loss {float(np.min(out.losses))!r}")
        blocks = np.asarray(out.summary["block_losses"], dtype=float)
        if len(blocks) != self.config["advection"]["n_blocks"] or not np.all(np.isfinite(blocks)):
            problems.append("block losses are missing or not finite")
        p = self.config["problem"]
        t_final = self.config["advection"]["t_final"]
        if not np.all(out.solution["t"] == t_final):
            problems.append("solution.csv is not the final-time profile")
        exact = transported_gaussian(out.solution["x"], t_final, p["speed"], p["nu"])
        err = float(np.max(np.abs(out.solution["predicted"] - exact)))
        if not err <= 5e-2:
            problems.append(f"Linf error {err:.3g} at t={t_final} exceeds 5e-2")
        return problems


class SpeedInverse(Workload):
    def check(self, out, reference=None):
        problems = super().check(out) + _min_loss_check(out)
        truth = self.config["sensors"]["truth"]["a"]
        if not abs(out.summary["a_est"] - truth) <= 0.01:
            problems.append(f"a_est {out.summary['a_est']!r} is more than 0.01 from {truth}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SharpLayer(
            "sharp-layer",
            "1D layer at nu=0.01 (criterion 1): the GP surrogate dominates, assembly is small",
            {
                "kind": "forward",
                "problem": {"type": "convdiff1", "nu": 0.01},
                "seed": 0,
                "baseline": {"n_colloc": 500, "n_rbf": 250, "sigma_f": 0.04},
                "search": {
                    "n_adaptive": 1,
                    "max_evals": 100,
                    "loss_tol": 1.0e-6,
                    "bounds": {"mu": [0.9, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]},
                    "fixed": {"f": 0.5},
                },
            },
            100,
        ),
        Poisson(
            "poisson-2d",
            "2D Poisson (criterion 5) cut to 20 evaluations: assembly and the SVD solve share the time; grading on 201x201 sets peak memory",
            {
                "kind": "forward",
                "problem": {"type": "poisson", "nu": 0.05},
                "seed": 1,
                "baseline": {"n_colloc": 1600, "n_rbf": 400, "sigma_f": 0.2, "n_boundary": 400},
                "search": {
                    "n_adaptive": 1,
                    "max_evals": 20,
                    "loss_tol": None,
                    "isotropic_widths": True,
                    "bounds": {
                        "f": [0.5, 1.0],
                        "mu_x": [0.4, 0.6],
                        "mu_y": [0.4, 0.6],
                        "tau": [0.2, 1.0],
                        "lam": [0.5, 1.0],
                    },
                },
            },
            20,
        ),
        TransportMarch(
            "transport-march",
            "100-block advection march (criterion 6) after 30 three-block tuning runs: 190 small solves, eval_matrix dominates",
            {
                "kind": "advection",
                "problem": {"type": "advection", "nu": 0.05, "speed": 0.5},
                "seed": 1,
                "advection": {
                    "n_blocks": 100,
                    "t_final": 1.0,
                    "n_colloc": 600,
                    "n_boundary": 150,
                    "n_initial": 450,
                    "n_rbf": 150,
                    "tuning_blocks": 3,
                    "max_evals": 30,
                    "bounds": {"f": [1.0, 1.5], "lam": [1.0, 1.5], "sigma_f": [2.5, 4.5]},
                },
            },
            30,
        ),
        SpeedInverse(
            "speed-inverse",
            "transport speed from 200 sensors (criterion 7): 2160x1600 SVD solves dominate; the only inverse path",
            {
                "kind": "inverse",
                "problem": {"type": "advection", "nu": 0.1},
                "seed": 1,
                "baseline": {"n_colloc": 1600, "n_rbf": 1600, "sigma_f": 0.1, "n_boundary": 80, "n_initial": 81},
                "sensors": {
                    "count": 200,
                    "noise": 0.05,
                    "placement": "uniform_random",
                    "truth": {"a": 0.5},
                },
                "search": {"n_adaptive": 0, "max_evals": 20, "loss_tol": None, "bounds": {"a": [0.1, 1.0]}},
            },
            14,
        ),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """The workload's YAML config, its keys in an order drawn from seed.

    Only the text depends on the seed: the keys of every mapping except
    the search bounds, whose order fixes the search vector, are shuffled,
    so every seed parses to the same run.
    """
    rng = random.Random(seed)

    def shuffled(value, key=None):
        if not isinstance(value, dict):
            return value
        items = [(k, shuffled(v, k)) for k, v in value.items()]
        if key != "bounds":
            rng.shuffle(items)
        return dict(items)

    return yaml.safe_dump(shuffled(workload.config), sort_keys=False)
