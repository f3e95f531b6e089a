"""Tests of the benchmark's own checks and output contract.

The end-to-end runs here use a 20-arrival stream in place of the
1,000-arrival one, so they finish in about a second.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gate import Gate  # noqa: E402
from reference import REFERENCE_S, Speed, reference_kernel  # noqa: E402
from tracer import HOOKS, Tracer, _resolve  # noqa: E402
from workloads import WORKLOADS, OnlineSim  # noqa: E402

from repro.core.scheduler import CaWoSched  # noqa: E402
from repro.experiments.instances import InstanceSpec, make_instance  # noqa: E402
from repro.schedule.cost import carbon_cost, carbon_cost_per_time_unit  # noqa: E402
from repro.schedule.schedule import Schedule  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def schedule():
    instance = make_instance(InstanceSpec("bacass", 15, "small", "S1", 1.5, seed=3))
    return CaWoSched().schedule(instance, "pressWR-LS")


def _gated(schedule) -> Gate:
    gate = Gate()
    gate.check_schedule("bacass", "pressWR-LS", schedule, carbon_cost(schedule),
                        carbon_cost_per_time_unit)
    gate.end_pass()
    return gate


def test_feasible_schedule_passes(schedule):
    gate = _gated(schedule)
    assert (gate.attempted, gate.failed) == (1, 0)


def test_task_shifted_before_predecessor_end_fails(schedule):
    dag = schedule.instance.dag
    duration = dag.duration_map()
    starts = schedule.start_times()
    source, target = next(
        (s, t) for s, t in dag.edges() if starts[s] + duration[s] >= 1
    )
    starts[target] = starts[source] + duration[source] - 1
    shifted = Schedule(schedule.instance, starts, algorithm="shifted")
    gate = _gated(shifted)
    assert (gate.attempted, gate.failed) == (1, 1)
    assert any("before its predecessor" in problem for problem in gate.problems)


def test_wrong_reported_cost_fails(schedule):
    gate = Gate()
    gate.check_schedule("bacass", "pressWR-LS", schedule, carbon_cost(schedule) + 1,
                        carbon_cost_per_time_unit)
    assert gate.failed == 1


def test_one_changed_start_changes_digest(schedule):
    starts = schedule.start_times()
    last = max(starts, key=starts.__getitem__)
    starts[last] += 1
    moved = Schedule(schedule.instance, starts, algorithm="moved")
    assert _gated(schedule).digest == _gated(schedule).digest
    assert _gated(moved).digest != _gated(schedule).digest


def test_repeated_pass_with_other_outputs_fails(schedule):
    starts = schedule.start_times()
    last = max(starts, key=starts.__getitem__)
    starts[last] -= 1
    other = Schedule(schedule.instance, starts, algorithm="other")
    gate = _gated(schedule)
    gate.check_schedule("bacass", "pressWR-LS", other, carbon_cost(other),
                        carbon_cost_per_time_unit)
    gate.end_pass()
    assert gate.failed >= 1


def test_tracer_hooks_exist_and_are_restored():
    originals = {b: vars(_resolve(b)[0])[_resolve(b)[1]] for bs in HOOKS.values() for b in bs}
    with Tracer():
        assert all(vars(_resolve(b)[0])[_resolve(b)[1]] is not f for b, f in originals.items())
    assert all(vars(_resolve(b)[0])[_resolve(b)[1]] is f for b, f in originals.items())


def test_speed_samples_inside_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speed(0.01)
    with speed:
        begin, stolen = time.perf_counter(), speed.stolen
        while time.perf_counter() - begin < 0.3:
            sum(range(1000))
        stolen = speed.stolen - stolen
    assert len(speed.samples) >= 3 and 0 < stolen < 0.3
    assert signal.getsignal(signal.SIGALRM) is before
    expected = statistics.fmean(REFERENCE_S / sample for sample in speed.samples)
    assert speed.take() == pytest.approx(expected) and not speed.samples
    assert speed.mismatches == 0 and speed.checksum == reference_kernel()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _tracked_state():
    status = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    if status.returncode != 0:
        pytest.skip("not a git checkout")
    diff = subprocess.run(["git", "diff"], cwd=ROOT, capture_output=True, text=True)
    return status.stdout, diff.stdout


@pytest.fixture(scope="module")
def results():
    """Run online-sim untraced and traced on a tiny stream, in process."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    run = _load_run()
    before = _tracked_state()
    printed = {}
    patch = pytest.MonkeyPatch()
    patch.setattr(OnlineSim, "arrivals", 20)
    try:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run.main(["--workload", "online-sim", "--seed", "7",
                                 "--seconds", "0", "--trace", str(trace)]) == 0
            printed[trace] = out.getvalue().splitlines()
    finally:
        patch.undo()
    return printed, before, _tracked_state()


def test_printed_metrics_match_benchmark_json(results):
    printed, _, _ = results
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads(printed[trace][-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = list(result["metrics"])
        assert all(NAME.fullmatch(name) for name in names)
        assert names == [entry["name"] for entry in SPEC[section]]
        units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
        assert all(m["unit"] == units[n] for n, m in result["metrics"].items())


def test_benchmark_writes_nothing_tracked(results):
    _, before, after = results
    assert before == after


def test_refuses_scalar_kernels():
    env = dict(os.environ, REPRO_SCALAR_KERNELS="1")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "online-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-sim", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and not done.stdout.strip()
