"""Canned studies: configure, run, verdict, and serialize to CSV.

`run_study` is the one harness: it validates the configuration, reads
the seed, times the run and owns the `StudyReport`.  Each study body
only computes and appends its rows and verdicts to that report.  A study
is a pure function of (config dict, seed): reruns reproduce the
canonical CSV byte for byte, regardless of worker count.  Volatile facts
(wall clock, flag echo, package, numpy and scipy versions, peak resident
memory) go to a JSON sidecar next to the CSV, never into the canonical file.

The kernel studies (`halfline_lemma`, `stability`) load numpy and
scipy.special alone.  The solver and the pipeline (scipy.linalg) load at
the gate, in `validate()` of a study with sigma keys, and SuperLU
(scipy.sparse) for one on a 2-D grid; the model study bodies import locally.

Canonical CSV schema, shared by every study:

    study,record,level,param,index,value

with floats serialized by repr (shortest round-trip form).  A study
defines which records it emits; verdicts appear as records named
``verdict_*`` with value 1.0 or 0.0.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy

from . import __version__
from .fields import FieldEnsemble, SpaceTimeGrid, _ordered_path_sum, finite_diff
from .halfline import BoundaryData, dt_v, solve_halfline, stability_gap
from .norms import (
    EXHAUSTIVE_LIMIT,
    NormSpec,
    parabolic_seminorm,
    schauder_ratio,
    trace_parabolic_norm,
)
from .rng import SeedSpec, coarsen, standard_normals, wiener_increments

__all__ = [
    "Verdict",
    "StudyReport",
    "ExperimentConfig",
    "run_study",
    "EXPERIMENTS",
]

CSV_COLUMNS = ("study", "record", "level", "param", "index", "value")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return repr(int(x))
    return repr(float(x))


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class StudyReport:
    study: str
    config: dict
    seed: int
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    norm_rows: list = field(default_factory=list)  # (field_id, grid_id, NormResult)
    wall_clock: float = 0.0
    flags: dict = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(not v.passed for v in self.verdicts)

    def row(self, record, level=None, param=None, index=None, value=None):
        """Append one canonical row; the study column comes from the report."""
        self.rows.append(
            {"record": record, "level": level, "param": param, "index": index, "value": value}
        )

    def verdict(self, name, passed, detail):
        """Append one verdict; the CSV closes with its verdict_<name> row."""
        self.verdicts.append(Verdict(name, passed, detail))

    def canonical_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join((self.study, *(_fmt(row[c]) for c in CSV_COLUMNS[1:]))))
        for v in self.verdicts:
            lines.append(f"{self.study},verdict_{v.name},,,,{_fmt(1.0 if v.passed else 0.0)}")
        return "\n".join(lines) + "\n"

    def norms_csv(self) -> str | None:
        if not self.norm_rows:
            return None
        lines = ["field_id,m,alpha,gamma,kind,value,argmax_pair,pairs_evaluated,grid_id,seed"]
        for field_id, grid_id, r in self.norm_rows:
            cells = (field_id, r.m, r.alpha, r.gamma, r.kind, r.value, str(r.argmax), r.pairs,
                     grid_id, self.seed)
            lines.append(",".join(_fmt(c).replace(",", ";") for c in cells))
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        """Write canonical CSV (+ norms CSV) and sidecar JSON."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        base = os.path.join(out_dir, self.study)
        texts = {"csv": self.canonical_csv(), "norms": self.norms_csv()}
        for kind, text in texts.items():
            if text is not None:
                paths[kind] = base + (".csv" if kind == "csv" else f"_{kind}.csv")
                with open(paths[kind], "w", newline="") as fh:
                    fh.write(text)
        sidecar = {
            "study": self.study,
            "config": self.config,
            "seed": self.seed,
            "flags": self.flags,
            "wall_clock_seconds": self.wall_clock,
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            # the process's peak so far; ru_maxrss is in KiB on Linux, bytes on macOS
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / (2**20 if sys.platform == "darwin" else 2**10),
            "verdicts": [
                {"name": v.name, "passed": v.passed, "detail": v.detail} for v in self.verdicts
            ],
        }
        with open(base + "_run.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        paths["sidecar"] = base + "_run.json"
        return paths


# -- configuration -----------------------------------------------------


class ConfigError(ValueError):
    """The experiment configuration is malformed or inadmissible."""


def _count(name, value, least=1) -> int:
    """A JSON integer >= least."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
    return value


def _number(name, value) -> float:
    """A finite JSON number: an int or a float, not a bool or a string."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _matrix(name, value):
    """Nested lists of finite JSON numbers; make() checks the shape."""
    if isinstance(value, list):
        return [_matrix(name, v) for v in value]
    return _number(name, value)


def _numbers(name, value) -> list:
    """A non-empty list of real numbers."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list of numbers, got {value!r}")
    return [_number(name, v) for v in value]


def _given(name, value):
    """A value a later check reads: a block, parsed against its own table,
    or a pair policy, which NormSpec checks is a known one."""
    return value


def _build(name, make, *args, **kwargs):
    """make(*args, **kwargs) of parsed values; its ValueError (ModelError
    included) is the named block's ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


# Each block is a table {key: (default, parser)}; parser(name, value)
# parses a given value and a key left out takes its default.
_REQUIRED = object()  # the default of a key the block must give
_NONNEG = partial(_count, least=0)
_BLOCKS = {
    # levels and coefficients in the studies that read them: validate() drops them elsewhere
    "configuration": {"experiment": (None, _given), "grid": ({}, _given),
                      "coefficients": ({}, _given), "data": ({}, _given),
                      "ensemble": ({}, _given), "levels": (1, _count)},
    "grid": {"dim": (_REQUIRED, _count), "x1_max": (_REQUIRED, _number),
             "x1_cells": (_REQUIRED, _count), "t_max": (_REQUIRED, _number),
             "steps": (_REQUIRED, _count), "xp_max": (0.0, _number), "xp_cells": (0, _NONNEG)},
    # and each of the study's sigma keys, required
    "coefficients": {"a": (_REQUIRED, _matrix), "kappa": (1.0, _number), "bound": (4.0, _number)},
    "ensemble": {"paths": (1, _count), "master_seed": (0, _NONNEG)},
}


@dataclass(frozen=True)
class _Study:
    """One study: its body(config, report, workers), grid dim (None:
    either), least level count (0: one grid, and no levels key), each
    sigma key with its tangency rule (True, False or None: either; no
    key: no coefficients block), its data block's table, the least
    x1_cells it takes and the number x1_cells must be a multiple of,
    and whether a level refines x' as well as x1 and t."""

    body: Callable
    dim: int | None
    levels: int
    sigma: dict
    data: dict
    x1_cells: int = 2
    x1_multiple: int = 1
    refine_xp: bool = True


@dataclass
class ExperimentConfig:
    """A study configuration: JSON with blocks experiment, grid, data,
    ensemble, and levels and coefficients where the study takes them.
    validate() parses them against the tables of `_BLOCKS` and of the
    study's `EXPERIMENTS` entry once and stores what the bodies read:
    grid, grids (it and the study's refinements, one per level), seed,
    n_paths, n_levels, coeffs (keyed by sigma key), data (every data
    key, defaults filled in) and specs (the NormSpecs)."""

    experiment: str
    raw: dict

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError(f"a configuration is a JSON object, got {type(raw).__name__}")
        kind = raw.get("experiment")
        if not isinstance(kind, str) or kind not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {kind!r}; expected one of {sorted(EXPERIMENTS)}"
            )
        return cls(experiment=kind, raw=raw)

    def block(self, name):
        value = self.raw.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"the {name} block must be an object, got {type(value).__name__}")
        return value

    def _parse(self, name, table) -> dict:
        """The named block parsed against its table: an unknown key is
        refused, every missing required key is named, and each other key
        is parsed or takes its default."""
        block = self.raw if name == "configuration" else self.block(name)
        unknown = sorted(set(block) - set(table))
        if unknown:
            raise ConfigError(
                f"unknown {name} key(s) {unknown}; the {self.experiment} study "
                f"takes {sorted(table)}"
            )
        missing = [k for k, (dflt, _) in table.items() if dflt is _REQUIRED and k not in block]
        if missing:
            raise ConfigError(f"missing {name} key(s) {missing}")
        prefix = "" if name == "configuration" else f"{name}."
        return {
            key: parse(prefix + key, block[key]) if key in block else default
            for key, (default, parse) in table.items()
        }

    def validate(self):
        """Admissibility gate, run before any compute: parses every block
        and checks the study's rules.  Returns the parabolicity report of
        each coefficient set, keyed by sigma key."""
        study = EXPERIMENTS[self.experiment]
        read = {"levels": study.levels, "coefficients": study.sigma}
        top = {k: row for k, row in _BLOCKS["configuration"].items() if read.get(k, True)}
        self.n_levels = self._parse("configuration", top).get("levels", 1)
        grid = self.grid = _build("grid", SpaceTimeGrid, **self._parse("grid", _BLOCKS["grid"]))
        ensemble = self._parse("ensemble", _BLOCKS["ensemble"])
        self.seed = _build("ensemble", SeedSpec, ensemble["master_seed"])
        self.n_paths = ensemble["paths"]
        if study.sigma:  # a model study: the solver and pipeline load here, before any compute
            from . import pipeline  # not read here: the pipeline body then imports nothing
            from .solver import (ModelCoefficients, _cfl_check, check_compatibility,
                                 check_parabolicity, interpolate_coefficients)
            if grid.dim == 2:  # SuperLU; loaded before the solver, it adds 0.9 MB to schauder's RSS
                import scipy.sparse.linalg  # noqa: F401
            required = dict.fromkeys(study.sigma, (_REQUIRED, _matrix))
            c = self._parse("coefficients", {**_BLOCKS["coefficients"], **required})
        self.data = self._parse("data", study.data)
        if study.dim not in (None, grid.dim):
            raise ConfigError(
                f"the {self.experiment} study needs a dim-{study.dim} grid, got dim {grid.dim}"
            )
        cells, least, multiple = grid.x1_cells, study.x1_cells, study.x1_multiple
        if cells % multiple or cells < least:
            rule = f"divisible by {multiple}" if cells % multiple else f">= {least}"
            raise ConfigError(f"the {self.experiment} study needs x1_cells {rule}, got {cells}")
        out = {}
        self.coeffs = {}
        for key, tangential in study.sigma.items():
            co = self.coeffs[key] = _build(
                "coefficients", ModelCoefficients.make, grid.dim, c["a"], c[key],
                kappa=c["kappa"], bound=c["bound"],
            )
            rep = check_parabolicity(co, times=(0.0,))  # constant: t_0 alone, by name for the tracer
            if not rep.passed:
                raise ConfigError(
                    f"coefficients ({key}) fail parabolicity: margins "
                    f"{rep.lower_margin:.3e}, {rep.upper_margin:.3e}"
                )
            out[key] = rep
            comp = check_compatibility(co)
            if tangential is not None and comp.passed != tangential:
                raise ConfigError(
                    f"coefficients ({key}): normal noise component "
                    f"{comp.max_normal_component:.3e}"
                    + (" violates the tangency hypothesis of this study" if tangential else
                       " is zero; the variants must be one tangential and one violating")
                )
        modes = {key: co.n_modes for key, co in self.coeffs.items()}
        if len(set(modes.values())) > 1:  # compatibility drives both variants with one noise batch
            raise ConfigError(f"the sigma keys need one column count, got {modes}")
        if self.n_levels < study.levels:
            raise ConfigError(f"the {self.experiment} study needs levels >= {study.levels}")
        # NormSpec's own checks give alpha, gamma and pair_policy their ranges;
        # a study with a gamma but no alpha has its gamma checked beside alpha = 1/2
        norm = {key: self.data[key] for key in ("gamma", "pair_policy") if key in self.data}
        alphas = np.ravel(self.data.get("alpha", [])).tolist()
        self.specs = [_build("data", NormSpec, alpha, **norm) for alpha in alphas]
        if norm and not alphas:
            _build("data", NormSpec, 0.5, **norm)
        self.grids = [grid]
        for _ in range(self.n_levels - 1):
            self.grids.append(self.grids[-1].refine(xp=study.refine_xp))
        # the largest lattice a study evaluates is the space-time one of its finest level
        if self.data.get("pair_policy") == "exhaustive":
            nodes = (self.grids[-1].steps + 1) * math.prod(self.grids[-1].space_shape)
            if nodes > EXHAUSTIVE_LIMIT:
                raise ConfigError(
                    f"pair_policy exhaustive: the finest level has {nodes} space-time nodes, "
                    f"past the exhaustive budget {EXHAUSTIVE_LIMIT}"
                )
        # the noise bound of the operator each solve steps (L_s0 for the
        # continuation, L_1 = L elsewhere); the base grid binds every level
        for key, co in self.coeffs.items():
            try:
                _cfl_check(interpolate_coefficients(co, self.data.get("s0", 1.0)), grid)
            except ValueError as exc:  # ModelError
                raise ConfigError(f"coefficients ({key}): {exc}") from exc
        return out


def _quotient(report, num, den, index):
    """num / den; a zero den gives nan and a sentinel row, as schauder_ratio's 0/0 does."""
    if den:
        return num / den
    report.row("sentinel", index=index, value="0/0" if num == 0.0 else "x/0")
    return math.nan


def _ls_slope(residuals):
    """Least-squares decay order of residuals halving the mesh per level."""
    y = np.log2(np.asarray(residuals, dtype=float))
    x = np.arange(y.size, dtype=float)
    return float(-np.polyfit(x, y, 1)[0])


# -- study 1: half-line kernel lemma ----------------------------------


def _halfline_lemma(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Kernel-solver study: heat identity, boundary recovery, ratio.

    Three verdicts: the D11 v = dt v residual decays at order >= 1.8
    over the refinement levels; the near-wall value recovers the wall
    data at order >= 0.9 as the probe node halves; and for each Hölder
    exponent the ratio of the parabolic seminorm of dt v to the time
    seminorm of h' moves by less than a factor 2 between the two finest
    levels.
    """
    grids = config.grids

    # part 1: identity residual under refinement, quadratic wall data
    residuals = []
    for j, g in enumerate(grids):
        data = BoundaryData.from_power(2, g.times)
        v = solve_halfline(data, g, workers=workers)
        vt = dt_v(data, g, workers=workers)
        res = float(np.max(np.abs(finite_diff(v, (2,)).values - vt.values)))
        residuals.append(res)
        report.row("heat_residual", level=j, value=res)
    for j in range(1, len(residuals)):
        report.row("heat_order", level=j, value=math.log2(residuals[j - 1] / residuals[j]))
    slope = _ls_slope(residuals)
    report.row("heat_order_fit", value=slope)
    decreasing = all(residuals[j] < residuals[j - 1] for j in range(1, len(residuals)))
    report.verdict(
        "heat_identity_order",
        decreasing and slope >= 1.8,
        f"fitted order {slope:.3f}, residuals {residuals}",
    )

    # part 2: boundary recovery as the probe node halves
    fine_times = grids[-1].times
    y0 = grids[0].dx1
    errors = []
    for j in range(4):
        y = y0 * 2.0**-j
        probe = SpaceTimeGrid(
            dim=1, x1_max=2.0 * y, x1_cells=2, t_max=grids[-1].t_max, steps=grids[-1].steps
        )
        data = BoundaryData.from_power(2, fine_times)
        v = solve_halfline(data, probe, workers=workers)
        err = float(np.max(np.abs(v.values[0, :, 1] - fine_times**2)))
        errors.append(err)
        report.row("boundary_error", level=j, param=y, value=err)
    b_slope = _ls_slope(errors)
    report.row("boundary_order_fit", value=b_slope)
    report.verdict(
        "boundary_recovery_order",
        b_slope >= 0.9,
        f"fitted order {b_slope:.3f}, errors {errors}",
    )

    # part 3: seminorm ratio for the fractional family, two finest levels
    for spec in config.specs:
        alpha = spec.alpha
        expo = 1.0 + alpha / 2.0
        ratios = []
        for j, g in enumerate(grids[-2:], start=len(grids) - 2):
            vt = dt_v(BoundaryData.from_power(expo, g.times), g, workers=workers)
            num = parabolic_seminorm(vt, spec).value
            den = trace_parabolic_norm(vt, spec)[1].value  # dt_v's wall column is h'
            ratios.append(num / den)
            report.row("lemma_num", level=j, param=alpha, value=num)
            report.row("lemma_den", level=j, param=alpha, value=den)
            report.row("lemma_ratio", level=j, param=alpha, value=num / den)
        spread = max(ratios) / min(ratios)
        ok = all(math.isfinite(r) for r in ratios) and spread < 2.0
        report.verdict(
            f"lemma_ratio_stable_alpha_{alpha}",
            ok,
            f"ratios {ratios}, spread {spread:.3f}",
        )


# -- study 2: stability constant --------------------------------------


def _stability_pairs(grid, seed, n_paths) -> dict:
    """The stability study's data pairs, keyed by name."""
    xi = standard_normals(seed, np.arange(n_paths), np.array([0]), np.array([0]))[:, 0, 0]
    return {
        "deterministic": (
            BoundaryData.from_power(2, grid.times),
            BoundaryData.from_power(3, grid.times),
        ),
        "random": (
            BoundaryData.from_power(2, grid.times, scales=xi),
            BoundaryData.from_power(2, grid.times, scales=0.9 * xi),
        ),
    }


def _stability(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Comparison bound for the kernel solver: lhs <= 1.05 rhs.

    Deterministic pair (t^2, t^3) and a random pair (xi t^2, 0.9 xi t^2)
    with the scale xi drawn per path from the counter generator.
    """
    grid = config.grid
    for name, (d1, d2) in _stability_pairs(grid, config.seed, config.n_paths).items():
        rep = stability_gap(d1, d2, grid, gamma=config.data["gamma"], workers=workers)
        report.row("lhs", param=name, value=rep.lhs)
        report.row("rhs", param=name, value=rep.rhs)
        report.row("ratio", param=name, value=rep.ratio)
        report.verdict(
            f"stability_{name}",
            rep.passed,
            f"lhs {rep.lhs:.6e} vs 1.05 * rhs {rep.rhs:.6e}",
        )


# -- study 3: compatibility dichotomy ---------------------------------


def _tangential_wave_field(grid, data):
    """f(x) = f_amplitude + f_tangential_wave * cos(2 pi x2 / xp_max), frozen in time."""
    prof = data["f_amplitude"]
    if grid.dim == 2:
        prof = prof + data["f_tangential_wave"] * np.cos(2.0 * np.pi * grid.xp_nodes / grid.xp_max)
    return FieldEnsemble(np.broadcast_to(prof, (1, grid.steps + 1) + grid.space_shape), grid)


def _compatibility(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Near-wall second-derivative profiles for tangential vs normal noise.

    Both variants share one noise batch and one drift forcing.  The
    violating variant additionally carries a noise forcing with nonzero
    wall trace, the classic irregularity driver; the tangential variant
    keeps g = 0 so the boundedness hypothesis holds.  The profile
    delta -> sup_(t,x') sqrt(E |D11 u(t,delta,x')|^2) is sampled at
    delta = x1_max / 8 ... x1_max / 128; tangential noise must keep
    max/min < 2 while the normal-noise variant must grow at every
    halving.
    """
    from .solver import Forcing, _steps
    grid = config.grid
    g_amp = config.data["g_violating_amplitude"]
    f = _tangential_wave_field(grid, config.data)
    co_tan, co_bad = config.coeffs["sigma_tangential"], config.coeffs["sigma_violating"]
    noise = wiener_increments(config.seed, config.n_paths, grid.steps, co_tan.n_modes, dt=grid.dt)
    g = None
    if g_amp != 0.0:
        shape = (1, grid.steps + 1) + grid.space_shape + (co_bad.n_modes,)
        g = FieldEnsemble(np.broadcast_to(g_amp, shape), grid, n_modes=co_bad.n_modes)

    deltas_idx = [grid.x1_cells >> k for k in range(3, 8)]
    near = np.add.outer([-1, 0, 1], deltas_idx)  # the D11 stencil rows at each delta
    # both variants share a, f and the noise; each steps its own state, in lockstep
    u = [np.zeros(grid.space_shape + (config.n_paths,)) for _ in range(2)]
    tan_run = _steps(co_tan, Forcing(f), grid, noise, u[0])
    bad_run = _steps(co_bad, Forcing(f, g), grid, noise, u[1])
    peak = np.zeros((2, len(deltas_idx), grid.n_xp))  # max over time of the path sums of D11 u^2
    for _ in zip(tan_run, bad_run):
        for v, p in zip(u, peak):
            lo, mid, hi = v[near]
            d11 = (lo - 2.0 * mid + hi) / (grid.dx1 * grid.dx1)
            np.maximum(p, _ordered_path_sum(d11 * d11), out=p)
    tan, bad = np.sqrt(np.max(peak, axis=2) / config.n_paths)  # max commutes with / n_paths
    for label, profile in (("tangential", tan), ("violating", bad)):
        for idx, value in zip(deltas_idx, profile):
            report.row("profile", param=idx * grid.dx1, index=label, value=float(value))

    spread = _quotient(report, float(np.max(tan)), float(np.min(tan)), "tangential")
    report.verdict("tangential_bounded", spread < 2.0, f"profile max/min {spread:.3f}")
    growing = bool(np.all(np.diff(bad) > 0))
    report.verdict("violating_growth", growing, "profile " + ", ".join(f"{x:.4e}" for x in bad))


# -- study 4: Schauder ratio ------------------------------------------


def _draw_fields(grid, coeffs, cs, scale=1.0):
    """Smooth trigonometric (f, g) from six draw coefficients, constant in
    time: one level broadcast over every time node (a zero time stride)."""
    x1, x2 = grid.x1_nodes, grid.xp_nodes
    wall_bump = np.cos(np.pi * x1 / (2.0 * grid.x1_max))
    interior_bump = np.sin(np.pi * x1 / grid.x1_max)
    cos2 = np.cos(2.0 * np.pi * x2 / grid.xp_max)
    sin2 = np.sin(2.0 * np.pi * x2 / grid.xp_max)
    f_prof = cs[0] + 0.5 * cs[1] * cos2[None, :] + 0.5 * cs[2] * wall_bump[:, None] * sin2[None, :]
    g_prof = (
        0.5 * cs[3] * interior_bump[:, None] * cos2[None, :] + 0.5 * cs[4] * interior_bump[:, None]
    )
    shape = (1, grid.steps + 1, grid.n_x1, grid.n_xp)
    f_vals = np.broadcast_to(scale * f_prof, shape)
    g_vals = np.broadcast_to(scale * g_prof[..., None], shape + (coeffs.n_modes,))
    return FieldEnsemble(f_vals, grid), FieldEnsemble(g_vals, grid, n_modes=coeffs.n_modes)


def _schauder_ratio(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Solution-to-data norm ratios over draws and refinement levels.

    Verdicts per draw: ratios finite with max/min < 2 across levels, and
    invariance of the ratio under doubling the data with shared noise.
    A zero draw exercises the 0/0 sentinel and is excluded from the
    verdicts.
    """
    from .solver import Forcing, solve_model_halfspace
    coeffs, seed, (spec,), grids = config.coeffs["sigma"], config.seed, config.specs, config.grids
    draw_seed = SeedSpec(seed.master_seed, 101)

    noises = [
        wiener_increments(seed, config.n_paths, g.steps, coeffs.n_modes, dt=g.dt) for g in grids
    ]
    for d in range(config.data["draws"]):
        cs = standard_normals(draw_seed, np.array([d]), np.arange(6), np.array([0]))[0, :, 0]
        ratios = []
        for j, g in enumerate(grids):
            f, gg = _draw_fields(g, coeffs, cs)
            u = solve_model_halfspace(coeffs, Forcing(f=f, g=gg), g, noises[j])
            rep = schauder_ratio(u, f, gg, spec)
            ratios.append(rep.ratio)
            report.row("lhs", level=j, index=d, value=rep.lhs)
            report.row("rhs", level=j, index=d, value=rep.rhs)
            report.row("ratio", level=j, index=d, value=rep.ratio)
            report.norm_rows.extend((f"draw{d}", f"L{j}", r) for r in rep.results)
            if j == 0:
                f2, gg2 = _draw_fields(g, coeffs, cs, scale=2.0)
                u2 = solve_model_halfspace(coeffs, Forcing(f=f2, g=gg2), g, noises[0])
                rep2 = schauder_ratio(u2, f2, gg2, spec)
                rel = abs(rep2.ratio - rep.ratio) / abs(rep.ratio)
                report.row("scaling_rel_diff", level=0, index=d, value=rel)
                report.verdict(
                    f"scaling_invariance_draw_{d}",
                    rel <= 1e-6,
                    f"relative ratio change {rel:.3e}",
                )
        finite = all(math.isfinite(r) for r in ratios)
        spread = max(ratios) / min(ratios) if finite and min(ratios) > 0 else math.inf
        report.verdict(
            f"ratio_stable_draw_{d}",
            finite and spread < 2.0,
            f"ratios {ratios}, spread {spread:.3f}",
        )

    # zero data: both sides vanish, sentinel reported, no verdict
    zero_f = FieldEnsemble(np.zeros((1, grids[0].steps + 1) + grids[0].space_shape), grids[0])
    u0 = solve_model_halfspace(coeffs, Forcing(f=zero_f), grids[0], noises[0])
    rep0 = schauder_ratio(u0, zero_f, None, spec)
    report.row("ratio", level=0, index="zero", value=rep0.ratio)
    report.row("sentinel", level=0, index="zero", value=rep0.sentinel)


# -- study 5: boundary-layer pipeline ---------------------------------


def _pipeline(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Wall-residual refinement study of the decomposition.

    Levels share one Brownian ensemble (the fine increments are summed
    into the coarser steps), so the residual trend is pure
    discretization.  Verdicts: the wall residual of the remainder
    forcing, measured past the spin-up window, decreases at every
    refinement; H vanishes identically at t = 0 with exactly zero
    initial slope; reconstruction of u from the parts is at solver
    tolerance.  The all-time residual max is reported too; it is pinned
    at the starting corner, which is self-similar under dt ~ dx^2
    refinement and cannot decay.  The coarsest level also cross-checks
    W0 against the kernel solve (its kernel_gap row).
    """
    from .pipeline import decompose_pipeline
    coeffs, n_levels, grids = config.coeffs["sigma"], config.n_levels, config.grids

    fine = wiener_increments(
        config.seed, config.n_paths, grids[-1].steps, coeffs.n_modes, dt=grids[-1].dt
    )
    noises = [fine]
    for _ in range(n_levels - 1):
        noises.append(coarsen(noises[-1], 4))
    noises = noises[::-1]  # coarse first, aligned with grids

    residuals, recons, h_checks = [], [], []
    for j, g in enumerate(grids):
        f = _tangential_wave_field(g, config.data)
        out = decompose_pipeline(coeffs, f, g, noises[j], kernel_check=(j == 0))
        residuals.append(out.wall_residual)
        recons.append(out.reconstruction_error)
        h0 = float(np.max(np.abs(out.cap_h[:, 0, ...])))
        h_checks.append(max(h0, out.h_slope_defect))
        report.row("wall_residual", level=j, value=out.wall_residual)
        report.row("wall_residual_full", level=j, value=out.wall_residual_full)
        report.row("reconstruction_error", level=j, value=out.reconstruction_error)
        report.row("h_initial_max", level=j, value=h0)
        report.row("h_slope_defect", level=j, value=out.h_slope_defect)
        if out.kernel_gap is not None:
            report.row("kernel_gap", level=j, value=out.kernel_gap)

    decreasing = all(residuals[j] < residuals[j - 1] for j in range(1, len(residuals)))
    report.verdict(
        "wall_residual_decreasing",
        decreasing,
        "residuals " + ", ".join(f"{r:.4e}" for r in residuals),
    )
    report.verdict(
        "h_initial_conditions",
        max(h_checks) == 0.0,
        f"max |H(0)| and slope defect {max(h_checks):.3e}",
    )
    scale = max(residuals[0], 1.0)
    report.verdict(
        "reconstruction",
        max(recons) <= 1e-10 * scale,
        f"max reconstruction error {max(recons):.3e}",
    )


# -- study 6: continuity iteration ------------------------------------


def _continuity(config: ExperimentConfig, report: StudyReport, workers: int) -> None:
    """Contraction factors of the operator-continuation iteration.

    Advances the iterates v_1..v_n of v_{m+1} = step(v_m), v_0 = 0, in
    one time loop under a fixed noise batch (`continuity_iterates`); the
    successive-difference norms sup_node E|.|^2 must shrink geometrically
    with a roughly constant factor over iterations 2..6.
    """
    from .solver import Forcing, continuity_iterates
    grid, coeffs, data = config.grid, config.coeffs["sigma"], config.data
    noise = wiener_increments(config.seed, config.n_paths, grid.steps, coeffs.n_modes, dt=grid.dt)
    f_vals = np.full((1, grid.steps + 1) + grid.space_shape, data["f_amplitude"])
    forcing = Forcing(f=FieldEnsemble(f_vals, grid))
    diffs, _ = continuity_iterates(
        coeffs, data["s"], data["s0"], forcing, grid, noise, data["iterations"]
    )
    diffs = [float(d) for d in diffs]
    for m, d in enumerate(diffs, start=1):
        report.row("diff", index=m, value=d)
    # an iterate equal to its predecessor leaves an exact 0 difference, and
    # every later difference is 0 too: a quotient by it is a sentinel
    ratios = [_quotient(report, d, p, i) for i, (p, d) in enumerate(zip(diffs, diffs[1:]), 2)]
    for i, r in enumerate(ratios, start=2):
        report.row("ratio", index=i, value=r)
    contracting = all(r < 1.0 for r in ratios)
    spread = _quotient(report, np.max(ratios), np.min(ratios), "spread")  # nan propagates
    report.verdict("contraction", contracting, "ratios " + ", ".join(f"{r:.4f}" for r in ratios))
    report.verdict("ratio_constancy", spread <= 1.25, f"ratio max/min {spread:.4f}")


_WAVE = {"f_amplitude": (1.0, _number), "f_tangential_wave": (0.5, _number)}
# the registry: each study's body and the table its configuration is parsed against
EXPERIMENTS = {
    "halfline_lemma": _Study(
        _halfline_lemma, 1, 2, {},
        {"alpha": ([0.25, 0.5, 0.75], _numbers), "gamma": (2.0, _number),
         "pair_policy": ("exhaustive", _given)},
        x1_cells=3,
    ),
    "stability": _Study(_stability, 1, 0, {}, {"gamma": (2.0, _number)}),
    # the profile nodes x1_max / 8 ... x1_max / 128 fall on grid nodes
    "compatibility": _Study(
        _compatibility, 2, 0, {"sigma_tangential": True, "sigma_violating": False},
        {**_WAVE, "g_violating_amplitude": (0.0, _number)}, x1_multiple=128,
    ),
    "schauder_ratio": _Study(
        _schauder_ratio, 2, 1, {"sigma": True},
        {"alpha": (0.5, _number), "gamma": (2.0, _number), "draws": (5, _count),
         "pair_policy": ("dyadic", _given)},
        x1_cells=3,
    ),
    "pipeline": _Study(
        _pipeline, None, 2, {"sigma": True}, _WAVE, x1_cells=3, refine_xp=False,
    ),
    "continuity": _Study(
        _continuity, 1, 0, {"sigma": None},
        {"s": (1.0, _number), "s0": (0.9, _number), "iterations": (7, partial(_count, least=3)),
         "f_amplitude": (1.0, _number)},
    ),
}


def run_study(config: ExperimentConfig, workers: int = 1) -> StudyReport:
    """Run the configured study and return its report.

    The one harness of every study: validate the configuration before
    any compute, read the seed, hand the study body an empty report to
    fill, and time the study from the end of the gate on.
    """
    config.validate()
    t0 = time.perf_counter()
    report = StudyReport(config.experiment, config.raw, config.seed.master_seed)
    EXPERIMENTS[config.experiment].body(config, report, workers)
    report.wall_clock = time.perf_counter() - t0
    return report
