"""Central registry of every ``REPRO_*`` environment knob.

PRs 1–2 grew a family of tuning knobs (memory budgets, worker counts)
whose declarations were scattered across the modules that read them, and whose README table was maintained
by hand.  This module is now the single source of truth: every knob is
declared here once — name, type, default, minimum, and the docstring the
README table is generated from — and read through the typed getters
below, which route through :mod:`repro.util.env` so parsing, one-shot
bad-value warnings, and minimum clamps behave identically everywhere.

Invariants (machine-checked by :mod:`repro.analysis`):

* no module outside :mod:`repro.util.env` touches ``os.environ``
  (``REP001``);
* the README knob table is generated from this registry
  (``python -m repro.analysis --fix-docs``) and CI fails when it drifts
  (``--check-docs``);
* liveness, both ways (``REP012``, whole-program): every knob declared
  here has at least one read site somewhere in ``src``/``tests``/
  ``benchmarks``, and every ``REPRO_*`` name read there resolves to a
  declaration — dead knobs and phantom reads are findings (the
  ``REPRO_TEST_*`` namespace is reserved for test fixtures and exempt).
  A knob read only outside those roots needs an inline waiver on its
  declaration.  At run time the getters raise ``KeyError`` on an
  undeclared name.

Adding a knob is therefore one :class:`Knob` entry plus a call site —
the docs and the linter pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .env import env_flag, env_float, env_int, env_path, env_snapshot, env_str

__all__ = [
    "KNOBS",
    "Knob",
    "get_flag",
    "get_float",
    "get_int",
    "get_path",
    "get_str",
    "knob_snapshot",
    "knob_table_markdown",
]

#: Value types a knob can carry.
KnobValue = Union[bool, int, float, str]


@dataclass(frozen=True)
class Knob:
    """Declaration of one ``REPRO_*`` environment knob.

    Attributes:
        name: environment variable, ``REPRO_``-prefixed.
        kind: ``"flag"``, ``"int"``, ``"float"``, ``"choice"`` or
            ``"path"`` (a verbatim, case-preserving filesystem path).
        default: value used when the variable is unset or rejected.
        doc: one-line effect description (becomes the README table cell).
        minimum: floor for numeric knobs; values below it clamp with a
            one-shot warning.  ``None`` disables clamping (e.g.
            ``REPRO_N_JOBS``, where ``<= 0`` means "all cores").
        choices: accepted spellings for ``"choice"`` knobs.
        alias: programmatic override shown next to the name in the table
            (e.g. ``"`n_jobs`"``).
        default_label: table text for the default when ``str(default)``
            is not descriptive (e.g. ``"1 (serial)"``).
        in_table: whether the knob appears in the README table (bench
            harness knobs do not).
    """

    name: str
    kind: str
    default: KnobValue
    doc: str
    minimum: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    alias: str = ""
    default_label: str = ""

    in_table: bool = True

    def default_cell(self) -> str:
        """The README table's Default cell for this knob."""
        if self.default_label:
            return self.default_label
        if self.kind == "flag":
            return "on" if self.default else "off"
        if self.kind == "float" and float(self.default) == int(self.default):  # type: ignore[arg-type]
            return str(int(self.default))  # type: ignore[arg-type]
        return str(self.default)

    def name_cell(self) -> str:
        """The README table's Knob cell (name plus programmatic alias)."""
        cell = f"`{self.name}`"
        if self.alias:
            cell += f" / {self.alias}"
        return cell


def _declare(*knobs: Knob) -> Dict[str, Knob]:
    registry: Dict[str, Knob] = {}
    for knob in knobs:
        if not knob.name.startswith("REPRO_"):
            raise ValueError(f"knob {knob.name!r} must be REPRO_-prefixed")
        if knob.name in registry:
            raise ValueError(f"duplicate knob declaration {knob.name!r}")
        if knob.kind not in ("flag", "int", "float", "choice", "path"):
            raise ValueError(f"{knob.name}: unknown kind {knob.kind!r}")
        if knob.kind == "choice" and not knob.choices:
            raise ValueError(f"{knob.name}: choice knob needs choices")
        registry[knob.name] = knob
    return registry


#: Every knob the package reads, in README-table order.
KNOBS: Dict[str, Knob] = _declare(
    Knob(
        name="REPRO_CWT_MEM_MB",
        kind="float",
        default=256.0,
        minimum=1.0,
        alias="`transform(max_mem_mb=...)`",
        doc="peak-memory budget for CWT chunking (results unchanged)",
    ),
    Knob(
        name="REPRO_N_JOBS",
        kind="int",
        default=1,
        alias="`n_jobs`",
        default_label="1 (serial)",
        doc="capture worker processes (`<= 0` = all cores; results unchanged)",
    ),
    Knob(
        name="REPRO_PARALLEL_MIN_FILES",
        kind="int",
        default=4,
        minimum=1,
        doc=(
            "min work items per capture worker before a pool is spun up "
            "(small captures stay serial; results unchanged)"
        ),
    ),
    Knob(
        name="REPRO_OBS",
        kind="flag",
        default=False,
        alias="`repro.obs.activate`",
        doc=(
            "enable span tracing + metrics collection (`--trace PATH` on "
            "experiment CLIs implies it; results unchanged)"
        ),
    ),
    Knob(
        name="REPRO_OBS_LOG_LEVEL",
        kind="choice",
        default="info",
        choices=("debug", "info", "warning", "error", "off"),
        doc="stderr log threshold for `repro.obs.log` status messages",
    ),
    Knob(
        name="REPRO_LEDGER",
        kind="flag",
        default=True,
        doc=(
            "set `0` to disable appending run records to the persistent "
            "run ledger from `python -m repro.experiments` runs"
        ),
    ),
    Knob(
        name="REPRO_LEDGER_DIR",
        kind="path",
        default=".repro-runs",
        doc=(
            "run-ledger directory; records append to "
            "`<dir>/ledger.jsonl` (`python -m repro.obs runs` lists them)"
        ),
    ),
    # Bench-harness knob: declared so its reads resolve, but kept out
    # of the README tuning table (it scales benchmarks, not the library).
    Knob(
        name="REPRO_BENCH_SCALE",
        kind="choice",
        default="bench",
        choices=("smoke", "bench", "paper"),
        doc="benchmark workload scale",
        in_table=False,
    ),
)


def _knob(name: str, kind: str) -> Knob:
    try:
        knob = KNOBS[name]
    except KeyError:
        raise KeyError(
            f"unknown knob {name!r}; declare it in repro.util.knobs.KNOBS"
        ) from None
    if knob.kind != kind:
        raise TypeError(
            f"{name} is a {knob.kind!r} knob; read it with get_{knob.kind}()"
        )
    return knob


def get_flag(name: str) -> bool:
    """Read a declared boolean knob."""
    knob = _knob(name, "flag")
    return env_flag(name, bool(knob.default))


def get_int(name: str) -> int:
    """Read a declared integer knob (minimum clamp applied)."""
    knob = _knob(name, "int")
    minimum = None if knob.minimum is None else int(knob.minimum)
    return env_int(name, int(knob.default), minimum=minimum)  # type: ignore[arg-type]


def get_float(name: str) -> float:
    """Read a declared float knob (minimum clamp applied)."""
    knob = _knob(name, "float")
    return env_float(name, float(knob.default), minimum=knob.minimum)  # type: ignore[arg-type]


def get_str(name: str) -> str:
    """Read a declared choice knob (unknown spellings warn and fall back)."""
    knob = _knob(name, "choice")
    return env_str(name, str(knob.default), choices=knob.choices)


def get_path(name: str) -> str:
    """Read a declared path knob verbatim (empty string when unset)."""
    knob = _knob(name, "path")
    return env_path(name, str(knob.default))


def knob_snapshot() -> Dict[str, str]:
    """Raw values of every declared knob that is set in the environment.

    The run ledger stamps this onto every record so a cross-run diff can
    attribute a regression to configuration, not just code.
    """
    return env_snapshot(sorted(KNOBS))


def knob_table_markdown() -> str:
    """Render the README tuning-knob table from the registry.

    ``python -m repro.analysis --fix-docs`` splices this between the
    ``<!-- replint:knob-table -->`` markers in README.md; ``--check-docs``
    (run in CI) fails when the committed table differs.
    """
    lines = ["| Knob | Default | Effect |", "| --- | --- | --- |"]
    for knob in KNOBS.values():
        if not knob.in_table:
            continue
        lines.append(
            f"| {knob.name_cell()} | {knob.default_cell()} | {knob.doc} |"
        )
    return "\n".join(lines) + "\n"
