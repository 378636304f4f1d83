"""ATH5xx — the telemetry clock discipline.

``repro.telemetry.clocks`` is the one sanctioned home for duration
clocks: :func:`wall_now` / :func:`cpu_now` / :class:`Stopwatch` wrap
``time.perf_counter`` and ``time.process_time`` so every measurement in
the framework flows through instruments that can be snapshot, disabled,
and audited in one place.  ATH1xx deliberately permits those duration
clocks (profiling does not perturb simulated results); this checker
closes the remaining gap by restricting the raw calls to the modules
that implement the measurement substrate itself — ``repro.telemetry``
and ``repro.simkernel``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.astutil import dotted_name, import_map
from repro.analysis.engine import Checker, ParsedModule
from repro.analysis.findings import Finding

#: time-module duration clocks reserved for repro.telemetry.clocks.
_DURATION_CLOCKS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.monotonic",
    "time.monotonic_ns",
}

#: Module path prefixes allowed to touch the raw clocks (relative to the
#: package root, matching how athena-lint reports relpaths).
_EXEMPT_PREFIXES = ("telemetry", "simkernel")


class TelemetryChecker(Checker):
    """Flags raw duration clocks outside the telemetry substrate."""

    name = "telemetry"
    rules = {
        "ATH501": "raw duration clock (time.perf_counter / process_time / "
        "monotonic); use repro.telemetry.clocks (Stopwatch, wall_now, "
        "cpu_now)",
        "ATH502": "time.sleep() stalls the real process; simulated delays "
        "belong on the simkernel event loop",
    }

    @staticmethod
    def _exempt(module: ParsedModule) -> bool:
        relpath = module.relpath
        for prefix in _EXEMPT_PREFIXES:
            if relpath.startswith(prefix) or f"/{prefix}/" in relpath or (
                f"{prefix}/" in relpath
            ):
                return True
        return False

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        if self._exempt(module):
            return []
        imports = import_map(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            resolved = imports.resolve(dotted)
            if resolved in _DURATION_CLOCKS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        "ATH501",
                        f"{resolved}() reads a raw duration clock; route "
                        f"measurements through repro.telemetry.clocks "
                        f"(Stopwatch / wall_now / cpu_now)",
                    )
                )
            elif resolved == "time.sleep":
                findings.append(
                    self.finding(
                        module,
                        node,
                        "ATH502",
                        "time.sleep() blocks the real process; schedule "
                        "simulated delays on the simkernel event loop",
                    )
                )
        return findings
