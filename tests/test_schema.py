"""The schema registry: every versioned report schema maps to its
validator, which accepts a real report and rejects a corrupted one."""

import copy
import json

import pytest

import repro
from repro import ops, schema
from repro.obs import SpanRegistry, chrome_trace, metrics_report, trace_report

COUNTER = """
TYPE t = COMPONENT (IN en: boolean; OUT q0: boolean) IS
SIGNAL r0: REG;
BEGIN
    IF RSET THEN r0.in := 0
    ELSE IF en THEN r0.in := NOT r0.out END;
    END;
    q0 := r0.out
END;
SIGNAL c: t;
"""


@pytest.fixture(scope="module")
def reports():
    """One real report per registered schema."""
    registry = SpanRegistry()
    circuit = repro.compile_text(COUNTER, registry=registry)
    run = ops.simulate(circuit, ops.SimRequest(
        cycles=4, pokes=[(0, "RSET", 1), (1, "RSET", 0), (1, "en", 1)],
        flight=4, metrics=True,
    ))

    def as_json(report):
        return json.loads(report.render_json())

    return {
        "zeus.metrics/1": metrics_report(circuit, run.sim, registry,
                                         elapsed=run.elapsed),
        "zeus.trace/1": trace_report(circuit, run.sim),
        "zeus.proof/1": as_json(ops.prove(circuit, ops.ProveRequest(depth=2))),
        "zeus.lint/1": as_json(ops.lint(circuit, ops.LintRequest())),
        "zeus.timing/1": as_json(ops.timing(circuit, ops.TimingRequest())),
        "zeus.interchange/1": ops.emit_verilog(circuit)[1],
        "chrome-trace": chrome_trace(registry, run.sim, elapsed=run.elapsed),
    }


def _set(path, value):
    def corrupt(report):
        *keys, last = path
        for key in keys:
            report = report[key]
        report[last] = value
    return corrupt


CORRUPTIONS = {
    "zeus.metrics/1": _set(["design", "nets"], "many"),
    "zeus.trace/1": _set(["window", "dropped"], -1),
    "zeus.proof/1": _set(["solver", "budget_exhausted"], "no"),
    "zeus.lint/1": _set(["summary", "errors"], 1.5),
    "zeus.timing/1": _set(["summary", "paths_reported"], 99),
    "zeus.interchange/1": _set(["ports", 0, "mode"], "SIDEWAYS"),
    "chrome-trace": _set(["traceEvents", 0, "ts"], "now"),
}


def test_every_schema_has_a_case():
    assert set(CORRUPTIONS) == set(schema.VALIDATORS)


@pytest.mark.parametrize("name", sorted(schema.VALIDATORS))
def test_validator_accepts_real_and_rejects_corrupted(name, reports):
    validate = schema.validator(name)
    validate(reports[name])
    broken = copy.deepcopy(reports[name])
    CORRUPTIONS[name](broken)
    with pytest.raises(ValueError):
        validate(broken)


def test_registry_names_the_public_validators():
    from repro.formal import validate_proof_report
    from repro.obs import validate_report

    assert schema.validator("zeus.proof/1") is validate_proof_report
    assert schema.validator("zeus.metrics/1") is validate_report


def test_messages_name_report_and_field(reports):
    broken = copy.deepcopy(reports["zeus.proof/1"])
    del broken["config"]
    with pytest.raises(ValueError, match=r"^proof report: missing report\.config$"):
        schema.validator("zeus.proof/1")(broken)
    broken = copy.deepcopy(reports["zeus.metrics/1"])
    broken["design"]["nets"] = "many"
    with pytest.raises(ValueError, match=r"^metrics report: design\.nets must "
                                         r"be <class 'int'>, got str$"):
        schema.validator("zeus.metrics/1")(broken)
