"""Seeded input generator: the lagcheck configs each workload runs.

The program sees only the config files written here.  Every random choice
flows from the workload name and the ``--seed`` of the run, so one seed always
gives the same configs, byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Check names every identities report must carry.  The heavy ones come from
# the finite-difference checks that only run with ``"heavy": true``.
LIGHT_CHECKS = (
    "tri_symmetry",
    "codazzi_full_symmetry",
    "h_trace_consistency",
    "H_derivative_symmetry",
    "T_consistency",
    "norm_identity",
    "lagrangian_condition",
    "gauss_two_method",
    "ricci_equation",
    "maslov_closedness",
)
HEAVY_CHECKS = (
    "ricci_identity",
    "laplace_contraction",
    "simons_identity_rel",
    "simons_inequality_margin",
    "spectral_consistency",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``lagcheck <command> --config <config> --out <out>``."""

    index: int
    command: str
    config: dict
    config_path: Path
    out_path: Path

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config_path), "--out", str(self.out_path)]

    @property
    def expected_checks(self) -> tuple[str, ...]:
        if self.command != "identities":
            return ()
        return LIGHT_CHECKS + HEAVY_CHECKS if self.config.get("heavy", True) else LIGHT_CHECKS


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # Seconds one op took at the seed (2-core x86 VM at 2.1 GHz, Python 3.11, numpy
    # 2.4).  Only sizes a run: ops = seconds / nominal_op_s, so the op count
    # of a run depends on --seconds alone and is the same on every commit.
    nominal_op_s: float
    # (nvars, order) jet tables the ops use; built during set-up.
    jet_tables: tuple[tuple[int, int], ...]
    bodies: tuple[Callable[[random.Random], dict], ...]

    def op_count(self, seconds: float) -> int:
        return max(len(self.bodies), round(seconds / self.nominal_op_s))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _whitney_cn(rng: random.Random, lo: float, hi: float) -> dict:
    # The dilation lam of a Whitney sphere offset by A: lam * (W + a).
    lam = _log_uniform(rng, lo, hi)
    offset = [[lam * rng.uniform(-1, 1), lam * rng.uniform(-1, 1)] for _ in range(3)]
    return {"family": "whitney_cn", "r": lam, "A": offset, "n": 3}


def _cn_heavy_whitney(rng):
    return {**_whitney_cn(rng, 0.1, 10.0), "samples": 20, "seed": _seed(rng)}


def _cn_heavy_perturbed(rng):
    eps = rng.uniform(0.01, 0.08)
    return {"family": "perturbed_whitney", "r": 1.0, "eps": eps, "mode": 1, "n": 3,
            "samples": 20, "seed": _seed(rng)}


def _cpn_light(rng):
    return {"family": "whitney_cpn", "theta": rng.uniform(0.3, 1.5), "n": 3, "samples": 60,
            "heavy": False, "seed": _seed(rng)}


def _energy_torus(rng):
    return {"family": "product_torus", "radii": [rng.uniform(0.5, 2.0) for _ in range(3)],
            "degree": 20}


def _energy_whitney_cn(rng):
    return {**_whitney_cn(rng, 0.5, 2.0), "degree": 20}


def _energy_whitney_cpn(rng):
    return {"family": "whitney_cpn", "theta": rng.uniform(0.3, 1.5), "n": 3, "degree": 20}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ident-cn-heavy", "identities", 4.0, ((3, 2), (3, 3), (3, 4)),
                 (_cn_heavy_whitney, _cn_heavy_perturbed)),
        Workload("ident-cpn-light", "identities", 2.2, ((3, 3),), (_cpn_light,)),
        Workload("energy-wide", "energy", 0.5, ((3, 1), (3, 2)),
                 (_energy_torus, _energy_whitney_cn, _energy_whitney_cpn)),
    )
}


def generate(name: str, seed: int, count: int, workdir: Path) -> list[Op]:
    """Write ``count`` configs for workload ``name`` into ``workdir``.

    Ops cycle through the workload's bodies, so the mix of bodies depends on
    ``count`` only and the parameters of each body on the seed only.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(count):
        cfg = wl.bodies[i % len(wl.bodies)](rng)
        path = workdir / f"op{i:03d}.json"
        path.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
        ops.append(Op(i, wl.command, cfg, path, workdir / f"op{i:03d}.report.json"))
    return ops
