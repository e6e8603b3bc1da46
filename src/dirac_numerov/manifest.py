"""Machine-readable run records and CSV export helpers.

Manifests are JSON with sorted keys so identical inputs produce
byte-identical files except for the wall_time_ms entries. CSV files are
RFC-4180-style with '#'-prefixed metadata comment lines before the header
and locale-independent scientific notation (15 significant digits).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .core import EigenResult, PhysicalConfig
from .solver import SolverSettings

TOOL_VERSION = "0.1.0"


def format_float(value: float) -> str:
    """Fixed scientific notation, 15 significant digits, dot decimal separator."""
    return f"{value:.14e}"


def config_echo(config: PhysicalConfig, settings: SolverSettings) -> dict:
    physical = asdict(config)
    physical["ansatz"] = config.ansatz.name
    physical["k_sign"] = config.k_sign.name
    knobs = asdict(settings)
    knobs["eta_window"] = list(settings.eta_window)
    knobs["scheme"] = settings.scheme.name
    return {"physical": physical, "settings": knobs}


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def result_record(dimension: int, result: EigenResult, wall_time_ms: int) -> dict:
    """Flat JSON-safe record of one eigenvalue search outcome."""
    trace = result.scan_trace
    return {
        "dimension": dimension,
        "found": result.found,
        "eta_star": _json_safe(result.eta_star),
        "epsilon_ev": _json_safe(result.epsilon_ev),
        "match_rho": _json_safe(result.match_rho),
        "mismatch_residual": _json_safe(result.mismatch_residual),
        "verdict_reason": result.verdict_reason,
        "trace_points": len(trace),
        "trace_islands": sum(1 for _, d in trace if d is not None),
        "wall_time_ms": int(wall_time_ms),
    }


@dataclass
class RunManifest:
    """Reproducibility record: configuration echo, version, and results."""

    tool_version: str
    command: str
    config_echo: dict
    results: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def render_csv(columns, rows, metadata=None) -> str:
    """CSV text with '#' metadata comments; floats in 15-digit scientific form."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            elif cell is None:
                cells.append("")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
