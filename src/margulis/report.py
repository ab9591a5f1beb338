"""Machine-readable check reports: stable JSON and CSV trace tables.

Serialization is byte-stable: keys sorted, floats via repr, no timestamps.
Exit-code contract: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence


@dataclass
class CheckEntry:
    name: str
    value: float
    bound: float
    passed: bool
    note: str = ""


@dataclass
class Report:
    suite: str
    entries: list[CheckEntry] = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def add(self, name: str, value: float, bound: float, passed: bool, note: str = "") -> None:
        self.entries.append(CheckEntry(name, float(value), float(bound), bool(passed), note))

    def check_leq(self, name: str, value: float, bound: float, note: str = "") -> None:
        self.add(name, value, bound, value <= bound, note)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_json(self) -> str:
        return dump_json({
            "suite": self.suite,
            "entries": [asdict(e) for e in self.entries],
            "environment": self.environment,
            "exit_code": self.exit_code,
        })

    def summary_lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            out.append(f"[{status}] {e.name}: value={e.value!r} bound={e.bound!r} {e.note}")
        return out


def dump_json(payload) -> str:
    """Byte-stable JSON text: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_text(text: str, path: Optional[str]) -> str:
    """Write ``text`` to ``path`` when one is given; returns ``text``."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def emit(report: Report, path: Optional[str]) -> str:
    """Write the report as byte-stable JSON; returns the serialized text."""
    return write_text(report.to_json(), path)


def trace_csv(partial_sums: Sequence[float]) -> str:
    lines = ["n,partial_sum"]
    for n, s in enumerate(partial_sums):
        lines.append(f"{n},{s!r}")
    return "\n".join(lines) + "\n"


def emit_csv(partial_sums: Sequence[float], path: str) -> None:
    write_text(trace_csv(partial_sums), path)
