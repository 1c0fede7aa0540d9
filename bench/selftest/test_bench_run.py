"""Tail percentile, operation lists and the bare-directory refusal."""

import subprocess
import sys

import pytest

import run
import workloads


def test_tail_leaves_ten_beyond_and_is_the_highest_such():
    for count in range(1, 400):
        rank = run.tail_rank(count)
        if count > 10:
            assert count - 1 - rank == 10
        else:
            assert rank == count - 1


def test_tail_value():
    latencies = list(range(100, 0, -1))
    assert run.latency_tail(latencies) == 90


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_whole_rounds(workload):
    rounds = workloads.rounds_for(workload, 20)
    ops = workloads.make_ops(workload, 7, rounds)
    assert ops == workloads.make_ops(workload, 7, rounds)
    assert ops != workloads.make_ops(workload, 8, rounds)
    faults = sum(op.known_fault for op in ops)
    if workload == "states":
        assert faults == rounds
        assert len(ops) == rounds * (workloads.STATES_PER_ROUND + 1)
    else:
        assert faults == 0


def test_stratified_covers_every_slice():
    import numpy as np

    values = workloads.stratified(np.random.default_rng(3), 4.0, 100.0, 48)
    slices = np.floor((values - 4.0) / 2.0)
    assert sorted(slices) == list(range(48))


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "workloads.py"):
        (bench / name).write_text((run.BENCH_DIR / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "spectra",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_every_per_layer_metric_names_a_traced_function():
    wanted = run.load_spec()["per_layer"]
    assert run.unknown_layers(wanted) == []
    renamed = wanted + [{"name": "scattering.delta_prime_batched.calls"}]
    assert run.unknown_layers(renamed) == ["scattering.delta_prime_batched.calls"]
