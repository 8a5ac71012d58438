"""Observability layer tests: spans, simulator metrics, export, CLI."""

import json
import time

import pytest

import repro
from repro.cli import main
from repro.obs import (
    SimMetrics,
    SpanRegistry,
    metrics_report,
    validate_report,
    write_metrics,
)
from repro.obs import spans as obs_spans
from repro.stdlib import programs

from zeus_test_utils import compile_ok

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


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpans:
    def test_nesting_paths_and_depths(self):
        reg = SpanRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        paths = [s.path for s in reg.spans]
        assert paths == ["outer/inner", "outer"]  # completion order
        assert [s.depth for s in reg.spans] == [1, 0]

    def test_phase_totals_accumulate(self):
        reg = SpanRegistry()
        for _ in range(3):
            with reg.span("a"):
                pass
        totals = reg.phase_totals()
        assert set(totals) == {"a"}
        assert totals["a"] >= 0

    def test_self_times_exclude_children(self):
        reg = SpanRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        self_t = reg.self_times()
        totals = reg.phase_totals()
        assert self_t["outer"] <= totals["outer"]
        assert self_t["inner"] == pytest.approx(totals["inner"])

    def test_self_times_of_sibling_roots_sharing_a_path(self):
        # Two roots with the same path (two daemon requests): each root
        # loses only its own child, never the other's.
        reg = SpanRegistry()
        for _ in range(2):
            with reg.span("request"):
                with reg.span("compile"):
                    time.sleep(0.01)
        self_t = reg.self_times()
        assert all(t >= 0 for t in self_t.values())
        roots = sum(sp.duration for sp in reg.spans if sp.depth == 0)
        assert sum(self_t.values()) == pytest.approx(roots)

    def test_disabled_registry_records_nothing(self):
        reg = SpanRegistry()
        reg.enabled = False
        with reg.span("a") as sp:
            assert sp is None
        assert not reg.spans

    def test_reset_clears(self):
        reg = SpanRegistry()
        with reg.span("a"):
            pass
        reg.reset()
        assert not reg.spans

    def test_render_table(self):
        reg = SpanRegistry()
        with reg.span("phase"):
            pass
        text = reg.render()
        assert "phase" in text and "ms" in text

    def test_bounded_memory(self):
        reg = SpanRegistry(maxlen=4)
        for i in range(10):
            with reg.span(f"s{i}"):
                pass
        assert len(reg.spans) == 4
        assert reg.spans[-1].name == "s9"

    def test_compile_text_records_pipeline_phases(self):
        obs_spans.REGISTRY.reset()
        repro.compile_text(COUNTER)
        names = {s.name for s in obs_spans.REGISTRY.spans}
        assert {"compile", "lex", "parse", "elaborate", "check"} <= names
        # lex/parse/elaborate/check all nest under the compile span.
        for s in obs_spans.REGISTRY.spans:
            if s.name != "compile":
                assert s.path.startswith("compile/")
        obs_spans.REGISTRY.reset()

    def test_scoped_registry_swap(self):
        outer = obs_spans.REGISTRY
        with outer.scoped() as fresh:
            assert obs_spans.REGISTRY is fresh
            repro.compile_text(COUNTER)
            assert fresh.phase_totals()["compile"] > 0
        assert obs_spans.REGISTRY is outer


def counter_sim(**kwargs):
    circuit = compile_ok(COUNTER)
    sim = circuit.simulator(**kwargs)
    sim.poke("RSET", 1); sim.poke("en", 0); sim.step()
    sim.poke("RSET", 0); sim.poke("en", 1); sim.step(8)
    return circuit, sim


class TestSimMetrics:
    def test_disabled_by_default(self):
        _, sim = counter_sim()
        assert not sim.metrics.enabled
        assert sim.metrics.cycles == 0
        assert sim.metrics.firings == 0

    def test_counter_activity(self):
        _, sim = counter_sim(metrics=True)
        m = sim.metrics
        assert m.cycles == 9
        assert len(m.firings_per_cycle) == 9
        assert sum(m.firings_per_cycle) == m.firings
        # Every net class fires exactly once per cycle in this design.
        assert len(set(m.firings_per_cycle)) == 1
        # q0 toggles on each of the 8 enabled cycles.
        toggles = dict((n, t) for n, t, _ in m.top_nets(len(m.net_names)))
        assert toggles["c.q0"] == 8
        # One REG, latching a driving value every cycle.
        assert m.latches == 9
        assert m.violations == 0
        assert m.propagation_steps == m.gate_evals + m.driver_evals

    def test_blackjack_deterministic_firing_rate(self):
        circuit = compile_ok(programs.ALL_PROGRAMS["blackjack"])
        sim = circuit.simulator(metrics=True)
        sim.poke("RSET", 1); sim.step()
        sim.poke("RSET", 0); sim.step(15)
        m = sim.metrics
        assert m.cycles == 16
        # The FSM fires a deterministic event count every cycle.
        assert len(set(m.firings_per_cycle)) == 1
        per_cycle = m.firings_per_cycle[0]
        assert per_cycle > 0
        assert m.firings == 16 * per_cycle
        cycle, firings = m.peak_cycle
        assert firings == per_cycle and 0 <= cycle < 16
        assert m.gate_evals > 0 and m.driver_evals > 0

    def test_peak_cycle_empty(self):
        m = SimMetrics([], [])
        assert m.peak_cycle == (-1, 0)

    def test_top_tables_ranked(self):
        _, sim = counter_sim(metrics=True)
        nets = sim.metrics.top_nets(3)
        assert len(nets) == 3
        assert nets[0][1] >= nets[1][1] >= nets[2][1]
        gates = sim.metrics.top_gates(2)
        assert gates[0][1] >= gates[1][1]

    def test_record_firing_compat(self):
        _, sim = counter_sim(record_firing=True)
        assert sim.record_firing
        assert sim.metrics.enabled
        assert sim.firing_log
        assert all(isinstance(name, str) for name, _ in sim.firing_log)

    def test_reset_state_clears_metrics(self):
        _, sim = counter_sim(metrics=True)
        sim.reset_state()
        m = sim.metrics
        assert m.cycles == 0 and m.firings == 0 and not m.firings_per_cycle

    def test_violation_tally(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL p: boolean;
            BEGIN
                IF a THEN p := 1 END;
                IF NOT a THEN p := 1 END;
                IF a THEN p := 0 END;
                y := p
            END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        sim = circuit.simulator(strict=False, metrics=True)
        sim.poke("a", 1)
        sim.step()
        assert sim.metrics.violations == len(sim.violations) > 0

    def test_render_mentions_key_counters(self):
        _, sim = counter_sim(metrics=True)
        text = sim.metrics.render()
        assert "net firings" in text
        assert "peak cycle" in text
        assert "hottest nets" in text


class TestExport:
    def test_report_validates(self):
        obs_spans.REGISTRY.reset()
        circuit = repro.compile_text(COUNTER)
        sim = circuit.simulator(metrics=True)
        sim.step(4)
        report = metrics_report(
            circuit, sim, obs_spans.REGISTRY, elapsed=0.01
        )
        validate_report(report)  # must not raise
        assert report["schema"] == "zeus.metrics/1"
        assert report["sim"]["cycles"] == 4
        assert report["compile"]["phases"]["compile"] > 0
        assert report["wall"]["cycles_per_s"] == pytest.approx(400.0)
        obs_spans.REGISTRY.reset()

    def test_report_without_sim_or_spans(self):
        circuit = repro.compile_text(COUNTER)
        report = metrics_report(circuit)
        validate_report(report)
        assert "sim" not in report
        assert report["design"]["registers"] == 1

    def test_top_caps_tables(self):
        circuit = repro.compile_text(COUNTER)
        sim = circuit.simulator(metrics=True)
        sim.step(2)
        report = metrics_report(circuit, sim, top=3)
        assert len(report["sim"]["nets"]) == 3

    def test_write_metrics_roundtrip(self, tmp_path):
        circuit = repro.compile_text(COUNTER)
        sim = circuit.simulator(metrics=True)
        sim.step(2)
        out = tmp_path / "m.json"
        write_metrics(str(out), metrics_report(circuit, sim))
        loaded = json.loads(out.read_text())
        validate_report(loaded)

    @pytest.mark.parametrize("bad", [
        {},
        {"schema": "zeus.metrics/1"},
        {"schema": "nope", "design": {}},
        {"schema": "zeus.metrics/1",
         "design": {"name": "x", "nets": "3", "gates": 0,
                    "connections": 0, "registers": 0}},
    ])
    def test_validator_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_report(bad)

    def test_validator_checks_cycle_series_length(self):
        circuit = repro.compile_text(COUNTER)
        sim = circuit.simulator(metrics=True)
        sim.step(2)
        report = metrics_report(circuit, sim)
        report["sim"]["firings_by_cycle"] = [1]
        with pytest.raises(ValueError):
            validate_report(report)


class TestProfileCli:
    def test_profile_builtin_blackjack(self, capsys):
        code, out, _ = run(
            ["profile", "--builtin", "blackjack", "--cycles", "8"], capsys
        )
        assert code == 0
        for phase in ("lex", "parse", "elaborate", "check"):
            assert phase in out
        assert "net firings" in out
        assert "cycles/sec" in out
        assert "hottest" in out

    def test_profile_writes_metrics(self, tmp_path, capsys):
        out_file = tmp_path / "prof.json"
        code, out, _ = run(
            ["profile", "--builtin", "adders", "--cycles", "4",
             "--poke", "a=3", "--poke", "b=1",
             "--metrics", str(out_file)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        validate_report(report)
        assert report["sim"]["cycles"] == 4

    def test_sim_metrics_flag(self, tmp_path, capsys):
        out_file = tmp_path / "sim.json"
        code, out, _ = run(
            ["sim", "--builtin", "blackjack", "--cycles", "4",
             "--metrics", str(out_file)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        validate_report(report)
        assert report["design"]["name"] == "bj"
        assert report["sim"]["firings"] > 0
        assert report["compile"]["phases"]["elaborate"] > 0

    def test_check_metrics_flag(self, tmp_path, capsys):
        out_file = tmp_path / "check.json"
        code, _, _ = run(
            ["check", "--builtin", "mux4", "--metrics", str(out_file)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        validate_report(report)
        assert "sim" not in report

    def test_analyze_metrics_flag(self, tmp_path, capsys):
        out_file = tmp_path / "an.json"
        code, _, _ = run(
            ["analyze", "--builtin", "adders", "--metrics", str(out_file)],
            capsys,
        )
        assert code == 0
        validate_report(json.loads(out_file.read_text()))


class TestGateEvalAccounting:
    def test_counts_only_real_evaluations(self):
        # y = AND(a, s) with a=0 fires the AND immediately; s = NOT a
        # arriving later re-notifies the fired gate, which must NOT be
        # counted as another evaluation.
        circuit = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s: boolean;
            BEGIN
                s := NOT a;
                y := AND(a, s)
            END;
            SIGNAL u: t;
            """
        )
        sim = circuit.simulator(metrics=True, engine="dataflow")
        sim.poke("a", 0)
        cycles = 5
        sim.step(cycles)
        m = sim.metrics
        evals = dict(zip(m.gate_labels, m.gate_eval_counts))
        fires = dict(zip(m.gate_labels, m.gate_fire_counts))
        (and_label,) = [g for g in m.gate_labels if g.startswith("AND")]
        assert fires[and_label] == cycles
        assert evals[and_label] == cycles


class TestEngineReporting:
    def test_engine_in_metrics_and_report(self):
        circuit, sim = counter_sim(metrics=True)
        assert sim.metrics.engine == sim.engine == "levelized"
        report = metrics_report(circuit, sim)
        validate_report(report)
        assert report["sim"]["engine"] == "levelized"
        assert "engine" in sim.metrics.render()

    def test_engine_survives_metrics_reset(self):
        _, sim = counter_sim(metrics=True)
        sim.reset_state()
        assert sim.metrics.engine == "levelized"
