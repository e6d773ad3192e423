"""Self-tests of the benchmark, on the seconds-long tiny size of each workload.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 1


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", str(TINY_SECONDS),
                "--trace", trace, "--size", "tiny")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"reference": "match"' in proc.stdout
    assert "absent hooks" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_and_digests_repeat_exactly(workload):
    def once():
        rec = probes.Recorder(timing=False)
        with probes.Installed(rec, probes.resolve(probes.COUNT_HOOKS)[0]):
            p = workloads.run_repeated(workloads.WORKLOADS[workload], "tiny", 5, 4, rec, reps=2)
        assert not p.failures
        return run.counters(p), p.slot_hashes

    assert once() == once()


def _perturbed_pass(monkeypatch, mutate):
    from repro.core.greedy import GreedyAllocator

    original = GreedyAllocator.allocate

    def allocate(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if result.payments:
            mutate(result)
        return result

    monkeypatch.setattr(GreedyAllocator, "allocate", allocate)
    workload = workloads.WORKLOADS["metro_points"]
    n = workload.timed_slots("tiny", TINY_SECONDS)
    return workloads.run_pass(workload, "tiny", 1, n, probes.Recorder(timing=False))


def test_perturbed_allocation_trips_the_digest_gate(monkeypatch):
    def nudge_value(result):
        qid = next(iter(result.values))
        result.values[qid] += 1e-9  # invariants still hold; only the digest sees it

    p = _perturbed_pass(monkeypatch, nudge_value)
    assert not p.failures
    bad, status = run.gate("metro_points", "tiny", TINY_SECONDS, 1, p.slot_hashes)
    assert status == "MISMATCH" and bad == len(p.slot_hashes)


def test_broken_invariant_is_a_failed_operation(monkeypatch):
    def overpay(result):
        key = next(iter(result.payments))
        result.payments[key] += 1.0

    p = _perturbed_pass(monkeypatch, overpay)
    assert len(p.failures) == len(p.slot_hashes)


def test_a_pass_that_computes_differently_is_a_failure(monkeypatch):
    original = workloads.run_pass
    calls = []

    def run_pass(*args):
        p = original(*args)
        calls.append(p)
        if len(calls) == 2:
            p.slot_hashes = ["0" * 16] + p.slot_hashes[1:]
        return p

    monkeypatch.setattr(workloads, "run_pass", run_pass)
    workload = workloads.WORKLOADS["metro_points"]
    p = workloads.run_repeated(workload, "tiny", 1, 3, probes.Recorder(timing=False), reps=3)
    assert len(calls) == 3
    assert p.failures == ["pass 2 computed differently from pass 1"]


def test_slot_times_are_the_fastest_pass(monkeypatch):
    fake = iter([
        workloads.PassResult(setup_s=[0.3], slot_s=[1.0, 5.0], step_s=[1.5, 5.0]),
        workloads.PassResult(setup_s=[0.1], slot_s=[3.0, 2.0], step_s=[3.0, 2.5]),
    ])
    monkeypatch.setattr(workloads, "run_pass", lambda *args: next(fake))
    workload = workloads.WORKLOADS["metro_points"]
    p = workloads.run_repeated(workload, "tiny", 1, 2, probes.Recorder(timing=False), reps=2)
    assert p.slot_s == [1.0, 2.0] and p.step_s == [1.5, 2.5]
    assert len(p.setup_s) == workload.setups and p.setup_s[-2:] == [0.3, 0.1]


def test_latencies_follow_the_slot_times():
    p = workloads.PassResult(step_s=[0.5, 1.0, 2.0], settles=[(0, 0), (0, 2), (1, 2)])
    assert p.latencies == [0.5, 3.5, 3.0]
    assert p.wait_slots == [0, 2, 1]
    assert p.wall_s == 3.5 and p.settled == 3


def test_unperturbed_tiny_pass_matches_reference():
    workload = workloads.WORKLOADS["metro_points"]
    n = workload.timed_slots("tiny", TINY_SECONDS)
    p = workloads.run_pass(workload, "tiny", 1, n, probes.Recorder(timing=False))
    assert run.gate("metro_points", "tiny", TINY_SECONDS, 1, p.slot_hashes) == (0, "match")


def test_every_traced_hook_resolves():
    found, absent = probes.resolve(probes.TRACE_HOOKS)
    assert absent == []
    wrapped = {(hook.target, owner.__name__) for hook, owner, _ in found}
    assert {hook.target for hook in probes.TRACE_HOOKS} == {t for t, _ in wrapped}
    block_owners = {owner for t, owner in wrapped if t.endswith("GainBlock.gain_many_block")}
    assert {"GainBlock", "_CoverageBlock", "_BestSensorBlock"} <= block_owners


def test_installed_probes_are_removed_on_exit():
    from repro.core.greedy import GreedyAllocator
    from repro.core.sharding import ShardedKernel

    before = (GreedyAllocator.__dict__["allocate"], ShardedKernel.__dict__["ensure_delta"])
    with probes.Installed(probes.Recorder(timing=True), probes.resolve(probes.TRACE_HOOKS)[0]):
        assert GreedyAllocator.__dict__["allocate"] is not before[0]
    assert (GreedyAllocator.__dict__["allocate"], ShardedKernel.__dict__["ensure_delta"]) == before


def test_missing_hook_is_reported_absent_and_the_run_continues(monkeypatch, capsys):
    missing = (
        probes.Hook("gone.class", "repro.core.greedy:NoSuchAllocator.allocate"),
        probes.Hook("gone.method", "repro.core.greedy:GreedyAllocator.no_such_method"),
        probes.Hook("gone.module", "repro.no_such_module:Thing.call"),
        # defined on ValuationKernel only: wrapping it here would need the base
        probes.Hook("inherited", "repro.core.sharding:ShardedKernel.roster"),
    )
    found, absent = probes.resolve(missing)
    assert found == [] and absent == [h.target for h in missing]
    monkeypatch.setattr(probes, "COUNT_HOOKS", probes.COUNT_HOOKS + missing)
    assert run.main(["--workload", "metro_points", "--seed", "1", "--size", "tiny",
                     "--seconds", str(TINY_SECONDS), "--trace", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("absent hooks") and "NoSuchAllocator" in line for line in out)
    assert json.loads(out[-1])["correct"] is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = _run("--workload", "metro_points", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
