"""Every committed bench/BENCH_<label>_<workload>.json is a whole record.

Each file holds the final JSON line of `python3 perfbench/run.py
--workload W --seed S --seconds 10` for each of its seeds. A speed claim
cites these files, so each must name its own label and workload, use a
workload BENCHMARK.json declares, and hold only correct runs that report
every end-to-end metric in its declared unit. The files are only read.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
FILES = sorted((ROOT / "bench").glob("BENCH_*.json"))


def test_bench_files_exist():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_is_a_whole_record(path):
    record = json.loads(path.read_text())
    _, label, workload = path.stem.split("_", 2)
    assert record["label"] == label
    assert record["workload"] == workload
    assert workload in WORKLOADS
    assert record["runs"] and [run["seed"] for run in record["runs"]] == record["seeds"]
    for run in record["runs"]:
        result = run["result"]
        assert result["correct"] is True, run["seed"]
        assert result["failed"] == 0, run["seed"]
        metrics = result["metrics"]
        assert set(UNITS) <= set(metrics), run["seed"]
        for name, unit in UNITS.items():
            assert metrics[name]["unit"] == unit, (run["seed"], name)
            value = metrics[name]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value), (run["seed"], name)
