"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import pytest

from run import check_outputs, quality
from spans import Tracer, layer_metrics, self_times, subtree
from workloads import WORKLOADS, render_config

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# per-layer metrics that run.py adds to those of spans.layer_metrics
RUN_LAYER_METRICS = {"cli.output_bytes", "cli.output_mb_per_s", "riccati.residual_max",
                     "trace.overhead_s"}


def _config_text(workload):
    return (ROOT / "configs" / workload.config).read_text()


def _key_lines(text):
    return [line for line in text.splitlines() if "=" in line.split("#", 1)[0]]


@pytest.mark.parametrize("name", ["lax_blowup", "one_sided_profile"])
def test_seed_zero_reproduces_config_file(name):
    w = WORKLOADS[name]
    text = _config_text(w)
    rendered = render_config(text, w, 0, "somewhere")
    expected = [
        "output.directory = somewhere" if line.startswith("output.directory") else line
        for line in text.splitlines()
    ]
    assert rendered.splitlines() == expected


def test_seed_zero_evolve_fine_is_lax_blowup_with_overrides():
    w = WORKLOADS["evolve_fine"]
    text = _config_text(w)
    rendered = _key_lines(render_config(text, w, 0, "out"))
    original = _key_lines(text)
    changed = {line.split("=")[0].strip() for line in set(original) ^ set(rendered)}
    assert changed == {"grid.n", "solver.snapshot_stride", "diagnostics.seeds",
                       "diagnostics.directions", "diagnostics.residuals", "output.directory"}
    assert "grid.n = 2048" in rendered
    assert "diagnostics.seeds = 0.0" in rendered


def test_seed_determines_inputs():
    w = WORKLOADS["one_sided_profile"]
    text = _config_text(w)
    assert render_config(text, w, 7, "out") == render_config(text, w, 7, "out")
    assert render_config(text, w, 7, "out") != render_config(text, w, 8, "out")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shift_translates_initial_state_exactly(name, tmp_path):
    config = pytest.importorskip("steepen.config")
    w = WORKLOADS[name]
    states = []
    for seed in (0, 7):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(render_config(_config_text(w), w, seed, "out"))
        cfg = config.load_config(path)
        states.append((cfg, config.make_initial(cfg)[0]))
    (cfg0, s0), (cfg7, s7) = states
    shift = s7.grid.x0 - s0.grid.x0
    assert shift > 0.0
    assert (s7.grid.x - shift == s0.grid.x).all()
    assert (s7.u == s0.u).all() and (s7.z == s0.z).all()
    assert (s7.m_arrays()[0] == s0.m_arrays()[0]).all()
    assert [s + shift for s in cfg0.diagnostics.seeds] == cfg7.diagnostics.seeds
    if cfg0.certify.A is not None:
        assert cfg7.certify.A == cfg0.certify.A + shift


def test_self_times_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.0, 6.0, 3],
        ["b.y", 7.0, 8.5, 3],
        ["other_root", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0]
    assert subtree(spans, 0) == [0, 1, 2, 3, 4, 5]
    assert sum(self_times(spans)[i] for i in subtree(spans, 0)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0]]
    assert self_times(spans)[0] == 4.0


def _traced_run():
    tracer = Tracer()
    tracer.record("import", 0.0, 1.0)
    tracer.record("config.load_config", 1.0, 1.5)
    tracer.record("config.make_initial", 1.5, 2.0)
    tracer.spans += [
        ["cli.run_pipeline", 3.0, 10.0, -1],
        ["solver.evolve", 3.5, 6.0, 3],
        ["fields.derivative", 4.0, 4.5, 4],
        ["fields.derivative", 5.0, 5.5, 4],
        ["riccati.diagnostics", 7.0, 8.0, 3],
        ["fields.derivative", 7.0, 7.5, 7],
    ]
    tracer.counts.update({"solver.steps": 1, "solver.cells": 4, "fields.derivative.bytes": 96})
    return layer_metrics(tracer)


def test_layer_metrics_arithmetic():
    m = {k: v for k, (v, _) in _traced_run().items()}
    assert m["import.s"] == 1.0 and m["config.s"] == 1.0
    assert m["solver.evolve.s"] == 2.5
    assert m["fields.derivative.calls"] == 3
    assert m["fields.derivative.calls_per_step"] == 2.0
    assert m["fields.derivative.s"] == 1.5
    assert m["fields.derivative.bytes_per_call_computed"] == 32.0
    assert m["riccati.diagnostics.s"] == 1.0
    assert m["cli.run_pipeline.self_s"] == 3.5
    assert m["trace.run_s"] == 7.0
    assert m["trace.unaccounted_s"] == 0.0


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert all(UNIT.match(u) for u in units)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)


def test_per_layer_list_matches_what_a_traced_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = (set(_traced_run()) - {"trace.unaccounted_s"}) | RUN_LAYER_METRICS
    assert {m["name"] for m in bench["per_layer"]} == reported
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(units[k] == unit for k, (_, unit) in _traced_run().items() if k in units)


def _summary(**changes):
    summary = {
        "termination": "gradient_blowup", "certificate": "thm14_y", "min_y0": "-1.25",
        "t_blow": "0.801", "t_blow_uncertainty": "0.005", "t_star_bound": "none",
        "int_u_drift": "1e-16", "int_tau_drift": "2e-12", "residual_max.ode_y": "22.3",
        "residual_max.ode_q": "3.5",
    }
    summary.update(changes)
    return summary


def test_output_checks():
    lax = WORKLOADS["lax_blowup"]
    assert check_outputs(lax, _summary()) == []
    assert check_outputs(lax, _summary(t_blow="0.81")) != []
    assert check_outputs(lax, _summary(certificate="none")) != []
    assert check_outputs(lax, _summary(termination="reached_t_end", t_blow="none")) != []
    assert check_outputs(lax, _summary(int_tau_drift="1e-3")) != []
    one_sided = WORKLOADS["one_sided_profile"]
    ok = _summary(certificate="thm15_y", t_blow="1.64", t_star_bound="1.71")
    assert check_outputs(one_sided, ok) == []
    assert check_outputs(one_sided, dict(ok, t_star_bound="1.6")) != []


def test_quality_figures():
    q = quality(WORKLOADS["lax_blowup"], _summary())
    assert q["residual_max"] == 22.3
    assert q["t_blow_rel_err"] == pytest.approx(abs(0.801 - 0.8) * 1.25)
    assert "t_blow_rel_err" not in quality(WORKLOADS["one_sided_profile"], _summary())
