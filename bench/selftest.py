"""Tests of the benchmark itself: its oracles, its tracing and its output.

They stay out of the package's test suite, which collects only test_*.py.
Run them from the repository root:

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import refspeed
import run
import tracing
import workloads

NLV = run.import_nlvtest()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 5
SMOKE_SECONDS = {"mc-counting": 4.0, "predict-scan": 1.0, "model-checks": 0.5}
EXACT = ("calls_per_op", "simulate.poisson_draws_per_op", "leggett.scan.candidates_checked")


def _warmup(name: str) -> list[workloads.Op]:
    return workloads.build(name, SEED, NLV)[0]


def _replace(outcome: workloads.Outcome, old: str, new: str) -> workloads.Outcome:
    assert old in outcome.text
    return workloads.Outcome(outcome.code, outcome.text.replace(old, new, 1))


def test_names_match_the_contract():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_its_oracles(name):
    result, record = run.measure(name, SEED, SMOKE_SECONDS[name], NLV, setup_launches=1)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_scales_follow_the_median_kernel_time_around_each_op():
    ref = refspeed.REFERENCE_MS / 1e3
    # one slow kernel run does not move its neighbours' scale
    assert refspeed.scales([ref] * 5 + [2 * ref] + [ref] * 5) == pytest.approx([1.0] * 11)
    # a slow spell halves the scale inside it, not far outside it
    scales = refspeed.scales([ref] * 20 + [2 * ref] * 20 + [ref] * 20)
    assert scales[:14] == pytest.approx([1.0] * 14)
    assert scales[26:34] == pytest.approx([0.5] * 8)
    assert refspeed.kernel_seconds() > 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_changes_no_output_and_counts_exactly(name):
    ops = _warmup(name)
    plain, _ = run.run_round(NLV, ops)
    passes = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            traced, latencies = run.run_round(NLV, ops)
        assert traced == plain
        assert tracer.self_seconds() <= sum(latencies)
        passes.append(tracer.metrics(len(ops), sum(latencies), sum(latencies)))
    assert list(passes[0]) == tracing.metric_names()
    exact = [k for k in passes[0] if k.endswith(EXACT[0]) or k in EXACT[1:]]
    assert {k: passes[0][k] for k in exact} == {k: passes[1][k] for k in exact}
    # the wrappers are gone again
    assert not hasattr(NLV.cli.main, "__wrapped__")
    assert not hasattr(NLV.sphere.build_schedule, "__wrapped__")
    assert not hasattr(NLV.inequality.build_schedule, "__wrapped__")


def test_traced_run_reports_every_layer_metric():
    result, record = run.measure_traced("mc-counting", SEED, 1.0, NLV)
    assert result["correct"], record["failures"]
    assert list(result["metrics"]) == tracing.metric_names()
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # 12 runs per op on average (16 ops of 10 runs and 4 of 20 in every 20),
    # each drawing 64 Poisson counts from 64 outcome probabilities
    assert values["quantum.outcome_probability.calls_per_op"] == 768
    assert values["simulate.poisson_draws_per_op"] == 768
    assert values["quantum.parse_state.calls_per_op"] == 12
    assert values["driver.self_ms_per_op"] >= 0.0


def test_oracles_reject_corrupted_outputs():
    predict = next(op for op in _warmup("predict-scan") if op.n == 2)
    out = workloads.execute(predict, NLV)
    assert workloads.judge("predict-scan", [predict], [out]) == [None]
    l_value = workloads._csv(out.text)[0]["l_value"]
    shifted = _replace(out, f",{l_value},", f",{float(l_value) + 1e-3:.4f},")
    assert workloads.judge("predict-scan", [predict], [shifted]) != [None]

    checks = [op for op in _warmup("model-checks") if not op.pairs]
    outs = [workloads.execute(op, NLV) for op in checks]
    assert workloads.judge("model-checks", checks, outs) == [None] * len(checks)
    for i in range(len(checks)):
        flipped = outs[:i] + [_replace(outs[i], "PASS", "FAIL")] + outs[i + 1:]
        assert workloads.judge("model-checks", checks, flipped)[i] is not None

    scan = next(op for op in _warmup("model-checks") if op.n == 1 and op.pairs)
    out = workloads.execute(scan, NLV)
    assert workloads.judge("model-checks", [scan], [out]) == [None]
    flipped = _replace(out, "True,", "False,")
    assert workloads.judge("model-checks", [scan], [flipped]) != [None]


def test_mc_oracles_reject_corrupted_outputs():
    reference = _warmup("mc-counting")
    outs = [workloads.execute(op, NLV) for op in reference]
    assert workloads.judge("mc-counting", reference, outs, warmup=True) == [None] * len(outs)
    changed = outs[:-1] + [_replace(outs[-1], ",ok,", ",ok ,")]
    assert all(workloads.judge("mc-counting", reference, changed, warmup=True))

    ops = workloads.build("mc-counting", SEED, NLV)[1][:24]
    outs = [workloads.execute(op, NLV) for op in ops]
    assert workloads.judge("mc-counting", ops, outs) == [None] * len(ops)
    bad_status = outs[:1] + [_replace(outs[1], ",ok,", ",degenerate,")] + outs[2:]
    assert workloads.judge("mc-counting", ops, bad_status)[1] is not None
    shifted = [workloads.Outcome(o.code, _shift_l(o.text, 0.02)) for o in outs]
    reasons = workloads.judge("mc-counting", ops, shifted)
    assert all(reasons[i] for i, op in enumerate(ops) if op.kind != "simulate-sub")


def _shift_l(text: str, delta: float) -> str:
    """Shift l_exp by ``delta`` in every run row of a simulate output."""
    lines = text.splitlines()
    col = lines[0].split(",").index("l_exp")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[0] != "summary":
            cells[col] = f"{float(cells[col]) + delta:.4f}"
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-counting", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
