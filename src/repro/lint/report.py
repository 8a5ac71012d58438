"""Lint reporting: the ``zeus.lint/1`` schema, text and SARIF renderers.

Like ``zeus.metrics/1`` (:mod:`repro.obs.export`), the JSON shape is
versioned and :func:`validate_lint_report` is its executable definition:

.. code-block:: none

    {
      "schema": "zeus.lint/1",
      "design": {"name", "nets", "gates", "connections", "registers"},
      "summary": {"findings", "errors", "warnings", "notes",
                  "suppressed", "by_rule": {rule: count}},
      "prover": {                        # omitted when the pass is off
        "nets_analyzed", "proved_exclusive", "proved_conflicting",
        "unknown",
        "nets": [{"net", "drivers", "verdict",
                  "pairs": [{"a","b","verdict","reason","witness"?}]}]
      },
      "findings": [{"rule", "code", "severity", "message", "net",
                    "line", "column", "suppressed"}]
    }

Counts in ``summary`` exclude suppressed findings; the ``findings`` list
includes them (flagged) so consumers can audit suppressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

from ..lang.errors import Severity
from ..lang.source import SourceText
from ..schema import design_block, need_counts, need_design
from ..schema import need as _need
from .model import RULES, Finding, LintConfig
from .prover import ProverResult

SCHEMA = "zeus.lint/1"

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning",
           Severity.NOTE: "note"}


@dataclass
class LintReport:
    """The result of one full lint run."""

    design_name: str
    stats: dict
    findings: list[Finding] = field(default_factory=list)
    prover: ProverResult | None = None
    config: LintConfig = field(default_factory=LintConfig)
    source: SourceText | None = None

    # -- counting ------------------------------------------------------------

    def _count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings
                   if f.severity is severity and not f.suppressed)

    @property
    def errors(self) -> int:
        return self._count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self._count(Severity.WARNING)

    @property
    def notes(self) -> int:
        return self._count(Severity.NOTE)

    @property
    def suppressed(self) -> int:
        return sum(1 for f in self.findings if f.suppressed)

    def by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            if not f.suppressed:
                out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def exit_code(self, werror: bool | None = None) -> int:
        """The ``zeusc`` exit-code contract: 0 clean, 1 warnings under
        ``--werror``, 2 errors."""
        if werror is None:
            werror = self.config.werror
        if self.errors:
            return 2
        if werror and self.warnings:
            return 1
        return 0

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        findings = []
        for f in self.findings:
            line = column = 0
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                line, column = pos.line, pos.column
            findings.append({
                "rule": f.rule,
                "code": f.code,
                "severity": _LEVELS[f.severity],
                "message": f.message,
                "net": f.net,
                "line": line,
                "column": column,
                "suppressed": f.suppressed,
            })
        report = {
            "schema": SCHEMA,
            "design": design_block(self.design_name, self.stats),
            "summary": {
                "findings": len(self.findings) - self.suppressed,
                "errors": self.errors,
                "warnings": self.warnings,
                "notes": self.notes,
                "suppressed": self.suppressed,
                "by_rule": self.by_rule(),
            },
            "findings": findings,
        }
        if self.prover is not None:
            report["prover"] = self.prover.to_dict()
        return report

    # -- renderers -----------------------------------------------------------

    def render_text(self, *, show_suppressed: bool = False) -> str:
        lines = []
        for f in self.findings:
            if f.suppressed and not show_suppressed:
                continue
            head = f"{_LEVELS[f.severity]}: [{f.rule}] {f.message}"
            if f.suppressed:
                head = f"(suppressed) {head}"
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                head = (f"{self.source.name}:{pos}: {head}\n"
                        f"{self.source.caret_diagram(f.span)}")
            lines.append(head)
        summary = (f"{self.design_name}: {self.errors} error(s), "
                   f"{self.warnings} warning(s), {self.notes} note(s)")
        if self.suppressed:
            summary += f", {self.suppressed} suppressed"
        if self.prover is not None:
            summary += (f"; prover: {self.prover.proved_exclusive} exclusive, "
                        f"{self.prover.proved_conflicting} conflicting, "
                        f"{self.prover.unknown} unknown "
                        f"of {len(self.prover.nets)} multi-driver net(s)")
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        report = self.to_dict()
        validate_lint_report(report)
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    def render_sarif(self) -> str:
        """Minimal SARIF 2.1.0: one run, one rule per registered rule,
        one result per non-suppressed finding."""
        used = {f.rule for f in self.findings}
        rules = [
            {
                "id": RULES[name].code,
                "name": name,
                "shortDescription": {"text": RULES[name].summary},
            }
            for name in sorted(used) if name in RULES
        ]
        results = []
        for f in self.findings:
            if f.suppressed:
                continue
            result: dict = {
                "ruleId": f.code or f.rule,
                "level": _LEVELS[f.severity],
                "message": {"text": f.message},
            }
            if self.source is not None and f.span.length:
                pos = self.source.position(f.span.start)
                result["locations"] = [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": self.source.name},
                        "region": {"startLine": pos.line,
                                   "startColumn": pos.column},
                    }
                }]
            results.append(result)
        sarif = {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "zeuslint",
                    "informationUri":
                        "https://example.invalid/zeus-reproduction",
                    "rules": rules,
                }},
                "results": results,
            }],
        }
        return json.dumps(sarif, indent=2, sort_keys=True) + "\n"


def write_lint_report(path: str, report: "LintReport") -> None:
    """Validate and write a report as ``zeus.lint/1`` JSON."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.render_json())


def validate_lint_report(report: dict) -> None:
    """Raise ``ValueError`` unless *report* conforms to ``zeus.lint/1``."""

    need = partial(_need, "lint report")

    if not isinstance(report, dict):
        raise ValueError("lint report must be a dict")
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"lint report: schema must be {SCHEMA!r}, "
            f"got {report.get('schema')!r}")
    need_design(need, need(report, "design", dict, "report"), "design")

    summary = need(report, "summary", dict, "report")
    for key in ("findings", "errors", "warnings", "notes", "suppressed"):
        need(summary, key, int, "summary")
    need_counts(need, summary, "by_rule", "summary")

    for f in need(report, "findings", list, "report"):
        need(f, "rule", str, "findings[]")
        need(f, "severity", str, "findings[]")
        if f["severity"] not in ("error", "warning", "note"):
            raise ValueError(
                f"lint report: bad severity {f['severity']!r}")
        need(f, "message", str, "findings[]")
        need(f, "line", int, "findings[]")
        need(f, "column", int, "findings[]")
        need(f, "suppressed", bool, "findings[]")

    if "prover" in report:
        prover = need(report, "prover", dict, "report")
        for key in ("nets_analyzed", "proved_exclusive",
                    "proved_conflicting", "unknown"):
            need(prover, key, int, "prover")
        for net in need(prover, "nets", list, "prover"):
            need(net, "net", str, "prover.nets[]")
            need(net, "drivers", int, "prover.nets[]")
            verdict = need(net, "verdict", str, "prover.nets[]")
            if verdict not in ("exclusive", "conflicting", "unknown"):
                raise ValueError(
                    f"lint report: bad prover verdict {verdict!r}")
            for pair in need(net, "pairs", list, "prover.nets[]"):
                need(pair, "a", int, "prover.nets[].pairs[]")
                need(pair, "b", int, "prover.nets[].pairs[]")
                need(pair, "verdict", str, "prover.nets[].pairs[]")
                need(pair, "reason", str, "prover.nets[].pairs[]")
