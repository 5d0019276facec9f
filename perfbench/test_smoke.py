"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at the tiny size, traced and untraced, and checks
that each metric in BENCHMARK.json and each named workload metric is
emitted with its unit; that a deliberately altered golden value is
caught; and that the benchmark refuses to run without the library.
Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from refclock import Clock  # noqa: E402

with open(os.path.join(HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

NAMED = {
    "paper-tables": {"setup_s", "tables_s", "failed_frac", "peak_rss_mb"},
    "codec": {"setup_s", "verify_s", "encode_kbit_s", "decode_kbit_s", "failed_frac", "silent_frac", "peak_rss_mb"},
    "cyclic": {"setup_s", "trellis_s", "encode_kbit_s", "decode_kbit_s", "failed_frac", "silent_frac", "peak_rss_mb"},
}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seconds", "1", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_emitted_with_unit(workload, trace):
    record, final = result_lines(bench("--workload", workload, "--seed", "5", "--trace", trace))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in final["metrics"].values())
    assert set(record["metrics"]) == NAMED[workload]
    assert all(m["unit"] and m["samples"] >= 1 for m in record["metrics"].values())
    for key in ("git_sha", "python", "nproc", "seed", "repetitions"):
        assert record[key] is not None
    if trace == "1":
        assert isinstance(record["trace_overhead_frac"], float)


def test_altered_oracle_flag_is_caught():
    golden = copy.deepcopy(GOLDEN)
    golden["oracle"]["a_n14_q2"]["ok"] = False
    tally = workloads.Tally(clock=Clock())
    workloads.Codec().job(None, tally, golden)
    assert tally.mismatches == ["oracle a_n14_q2"]
    assert tally.failed == 1


def test_altered_flush_outcome_is_caught():
    golden = copy.deepcopy(GOLDEN)
    golden["stream_codes"]["golay23"]["flush_fails"].append(workloads.FLUSH_CHECK_PAYLOADS - 1)
    cyclic = workloads.Cyclic()
    tally = workloads.Tally(clock=Clock())
    cyclic.check(cyclic.setup(golden), tally, golden)
    assert [m.split(":")[0] for m in tally.mismatches] == ["flush outcome golay23"]
    assert tally.failed == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "codec", "--seed", "5", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
