"""The single source of truth for ``REPRO_*`` environment knobs.

Every environment variable that changes the library's behaviour is
declared here, once, as data.  The CLI help epilogs
(``repro serve --help``, ``repro observe --help``,
``repro qdb explain --help``) and the README's configuration section
all render :func:`render_env_table` from this module, so a knob cannot
exist without being documented — ``tests/test_envdoc.py`` greps the
source tree for ``REPRO_*`` reads and fails if one is missing from
:data:`ENV_KNOBS`, and fails again if the README's table drifts from
the rendered one.

>>> "REPRO_KERNELS" in render_env_table()
True
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ENV_KNOBS", "EnvKnob", "env_knob_epilog", "render_env_table"]


@dataclass(frozen=True)
class EnvKnob:
    """One documented environment variable."""

    name: str
    component: str
    values: str
    default: str
    description: str


#: Every behaviour-changing ``REPRO_*`` variable, in display order.
ENV_KNOBS: tuple[EnvKnob, ...] = (
    EnvKnob(
        "REPRO_KERNELS", "kernels", "cext|uint64", "auto-probe",
        "Force the GF(2)/popcount kernel backend instead of probing "
        "cext -> uint64.",
    ),
    EnvKnob(
        "REPRO_KERNELS_CACHE", "kernels", "directory",
        "<tempdir>/repro-kernels",
        "Build/cache directory for the compiled C extension.",
    ),
    EnvKnob(
        "REPRO_QDB_HISTORY_STORE", "qdb", "ram|memmap", "ram",
        "Backing store for packed query-history masks (memmap spills "
        "to disk for out-of-core histories).",
    ),
    EnvKnob(
        "REPRO_QDB_HISTORY_BUDGET", "qdb", "bytes", "unbounded",
        "RAM ceiling for the memmap history's hot window; older mask "
        "blocks are evicted to disk past it.",
    ),
    EnvKnob(
        "REPRO_SERVING_SHARDS", "serving", "count >= 1", "4",
        "Default shard count for ServingRuntime / `repro serve` when "
        "no explicit value is given.",
    ),
    EnvKnob(
        "REPRO_SERVING_QUEUE_DEPTH", "serving", "count >= 1", "64",
        "Default per-shard ingress queue bound; a full queue yields "
        "typed 'admission: shard ingress queue full' refusals.",
    ),
    EnvKnob(
        "REPRO_TRACE_SAMPLE", "telemetry", "count >= 1", "1",
        "Trace-context sampling: materialise a request trace for every "
        "Nth request per session (1 traces everything; sequence numbers "
        "still advance for sampled-out requests, keeping ids stable).",
    ),
)


def render_env_table() -> str:
    """The aligned plain-text knob table shared by CLI help and README."""
    headers = ("variable", "component", "values", "default")
    rows = [
        (knob.name, knob.component, knob.values, knob.default)
        for knob in ENV_KNOBS
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for knob, row in zip(ENV_KNOBS, rows):
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        lines.append(f"{'':{widths[0]}}    {knob.description}")
    return "\n".join(lines)


def env_knob_epilog() -> str:
    """The table wrapped for an argparse ``epilog``."""
    return (
        "environment variables (all REPRO_* knobs; the table is "
        "generated from repro.envdoc):\n\n" + render_env_table()
    )
