"""The three benchmark workloads: generated configs, CLI commands, references.

A workload is built from the seed alone.  The seed picks each config's
initial basis index and the angles of the custom cell unitary; qca2 only
ever sees the config files written from it.  The expected result of every
command comes from a reference computed here, never from a constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference

NAMES = ("presets", "custom", "wide")
WHY = {
    "presets": "paper figure path: 8-cell simulate where CSV/PGM formatting of few distinct "
               "values dominates, then check and matrix, the only calls on the dense oracle",
    "custom": "non-Clifford cell unitary on 5 cells: the period search over 2048 columns finds "
              "nothing, nearly every CSV value is distinct, two-qubit gate kernel",
    "wide": "10-cell period search: the gate kernel streams a 16 MB state and dominates the "
            "call, and the recorded matrix sets peak memory",
}

PERIOD_TOL = 1e-9  # qca2's default --tol, which the commands use
# Every lag of a reference matrix must either match far inside the
# tolerance or miss it by more than this, so rounding cannot flip the result.
CLEAR_MISS = 1e-6


@dataclass(frozen=True)
class Config:
    """One generated config file and the parameters it encodes."""

    name: str
    cells: int
    rule: str
    boundary: str
    eval_name: str  # identity, h_both, h_s_then_cn or custom
    initial: int
    steps: int
    unitary: np.ndarray = field(compare=False, repr=False)

    def text(self) -> str:
        if self.eval_name == "custom":
            entries = ",".join(_format_complex(z) for z in self.unitary.reshape(-1))
            eval_value = f"custom:{entries}"
        else:
            eval_value = self.eval_name
        return (
            f"cells={self.cells}\nrule={self.rule}\nboundary={self.boundary}\n"
            f"eval={eval_value}\nsteps={self.steps}\ninitial={self.initial}\n"
        )


def _format_complex(z: complex) -> str:
    # repr() round-trips a double exactly, so qca2 parses the very same matrix.
    im = repr(float(z.imag))
    return f"{float(z.real)!r}{'' if im.startswith('-') else '+'}{im}i"


@dataclass(frozen=True)
class Command:
    """One CLI call on a generated config."""

    kind: str  # simulate, period, check or matrix
    config: Config
    horizon: int = 0  # period only

    @property
    def metric(self) -> str:
        """The end-to-end metric this call's wall time feeds."""
        return f"{self.kind}_s"

    @property
    def columns(self) -> int:
        """Probability columns the call computes (simulate and period)."""
        return self.horizon if self.kind == "period" else self.config.steps + 1

    def outputs(self, out_dir: Path) -> dict[str, Path]:
        if self.kind != "simulate":
            return {}
        stem = Path(self.config.name).stem
        return {"csv": out_dir / f"{stem}.csv", "pgm": out_dir / f"{stem}.pgm"}

    def warmup(self) -> Command:
        """The same call on a small input.  It runs every code path the
        timed call runs, so lazy set-up is done before timing, at a small
        fraction of the cost: two steps of evolution, a short horizon, and
        the dense calls on two cells."""
        c = self.config
        cells = 2 if self.kind in ("check", "matrix") else c.cells
        small = replace(c, name=f"warmup-{c.name}", cells=cells, steps=2,
                        initial=c.initial % 4**cells)
        return replace(self, config=small, horizon=min(self.horizon, 3))

    def argv(self, config_dir: Path, out_dir: Path) -> list[str]:
        argv = [self.kind, str(config_dir / self.config.name)]
        if self.kind == "period":
            argv += ["--horizon", str(self.horizon)]
        for kind, path in self.outputs(out_dir).items():
            argv += [f"--out-{kind}", str(path)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[Config, ...]
    commands: tuple[Command, ...]
    # The workload's character, which every seed must keep: the period its
    # period command finds, None for no period within the horizon.  The
    # warm-up, on small inputs, has no character to keep.
    period: int | None = None
    keeps_character: bool = True

    def warmup(self) -> Workload:
        """The warm-up repetition: every call, each on a small input."""
        commands = tuple(cmd.warmup() for cmd in self.commands)
        configs = tuple({cmd.config.name: cmd.config for cmd in commands}.values())
        return Workload(f"{self.name}-warmup", configs, commands, keeps_character=False)


def _config(name, cells, rule, boundary, eval_name, initial, steps, unitary=None):
    if unitary is None:
        unitary = reference.CELL_UNITARIES[eval_name]
    return Config(name, cells, rule, boundary, eval_name, int(initial), steps, unitary)


def quiet_index(n_cells: int, rng: np.random.Generator) -> int:
    """A random basis index whose first interaction phase flips nothing:
    only s-bits set, no two of them two cells apart.

    Under presets' rule (both, const0, h_both) every such index gives the
    same multiset of probabilities over 40 steps as index 0 (checked for all
    64 at 8 cells), so the seed moves values between rows but keeps their
    count, their digits and so the formatting work.
    """
    while True:
        cells = [j for j in range(n_cells) if rng.integers(2)]
        if not any(j + 2 in cells for j in cells):
            return sum(2 << (2 * j) for j in cells)


def build(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "presets":
        fig = _config("presets8.conf", 8, "both", "const0", "h_both",
                      quiet_index(8, rng), 40)
        dense = _config("dense5.conf", 5, "both", "cyclic", "h_s_then_cn",
                        rng.integers(4**5), 20)
        return Workload(name, (fig, dense), (
            Command("simulate", fig),
            Command("check", dense),
            Command("matrix", dense),
        ))
    if name == "custom":
        # Angles stay clear of 0 and pi/2, where Ry(a) and Rz(b) turn Clifford.
        a, b = rng.uniform(0.3, 1.3, size=2)
        config = _config("custom5.conf", 5, "both", "cyclic", "custom",
                         rng.integers(4**5), 1023, reference.ry_h_rz(a, b))
        return Workload(name, (config,), (
            Command("period", config, horizon=2048),
            Command("simulate", config),
        ), period=None)
    if name == "wide":
        # Under this rule two full updates permute the basis states, and
        # three such pairs are the identity with no fixed point but index 0.
        # So every index except 0 has period 6, and 0 alone has period 2.
        config = _config("wide10.conf", 10, "right", "cyclic", "h_both",
                         rng.integers(1, 4**10), 15)
        return Workload(name, (config,), (Command("period", config, horizon=16),),
                        period=6)
    raise ValueError(f"unknown workload {name!r}")


# --- expected results ------------------------------------------------------


@dataclass(frozen=True)
class PeriodExpectation:
    period: int | None  # None: no period within the horizon
    deviation: float  # max deviation at `period`; nan when not found
    columns: int


def expected_period(matrix: np.ndarray, tol: float = PERIOD_TOL) -> PeriodExpectation:
    """Period search on a reference matrix, by qca2's definition: the
    smallest lag whose columns agree within `tol` over two repetitions.

    Raises ValueError when a lag deviates by more than 1e-3 * tol but no
    more than CLEAR_MISS, where rounding could flip the answer.
    """
    for p in np.nonzero(reference.lag_screen(matrix) <= CLEAR_MISS)[0] + 1:
        dev = reference.lag_deviation(matrix, int(p))
        if dev <= 1e-3 * tol:
            return PeriodExpectation(int(p), dev, matrix.shape[1])
        if dev <= CLEAR_MISS:
            raise ValueError(f"lag {p} deviates by {dev:g}, too close to the tolerance")
    return PeriodExpectation(None, math.nan, matrix.shape[1])


def dense_operator(config: Config) -> np.ndarray:
    """qca2's dense oracle: the full-update operator composed gate by gate."""
    # Steps and initial index do not enter the operator; pin them so that
    # configs differing only there share one cache entry.
    return _dense_operator(replace(config, name="", steps=0, initial=0).text())


@functools.lru_cache(maxsize=4)
def _dense_operator(text: str) -> np.ndarray:
    from qca2 import io_formats, rules

    return rules.build_dense_rule(io_formats.parse_config(text))


def reference_matrix(config: Config, n_cols: int) -> np.ndarray:
    """Probability matrix a CLI call must reproduce within 1e-12.

    At 5 cells this is the dense oracle applied step by step.  Above that the
    dense operator does not fit, and the rule-text reference stands in.
    """
    if config.cells <= 5:
        return reference.dense_columns(dense_operator(config), config.initial, n_cols - 1)
    return reference.evolve(config.cells, config.rule, config.boundary,
                            config.unitary, config.initial, n_cols - 1)


def expectations(workload: Workload) -> list:
    """Expected result of each command, in command order: a reference
    matrix (simulate), a PeriodExpectation (period), the dense operator
    (matrix), or None (check).  Raises ValueError if the seed broke the
    workload's character."""
    n_cols: dict[str, int] = {}
    for cmd in workload.commands:
        if cmd.kind in ("simulate", "period"):
            n_cols[cmd.config.name] = max(n_cols.get(cmd.config.name, 0), cmd.columns)
    matrices = {c.name: reference_matrix(c, n_cols[c.name])
                for c in workload.configs if c.name in n_cols}
    out = []
    for cmd in workload.commands:
        if cmd.kind == "simulate":
            out.append(matrices[cmd.config.name][:, : cmd.columns])
        elif cmd.kind == "period":
            exp = expected_period(matrices[cmd.config.name][:, : cmd.columns])
            if workload.keeps_character and exp.period != workload.period:
                raise ValueError(f"{workload.name}: this seed gives period {exp.period} "
                                 f"within {cmd.horizon} columns, not {workload.period}")
            out.append(exp)
        elif cmd.kind == "matrix":
            out.append(dense_operator(cmd.config))
        else:
            out.append(None)
    return out
