"""Every committed perf record `BENCH_*.json` at the repository root must
parse and carry what a reader needs to check its claim: what changed, the
host, the parent commit and, for each workload it measured, the seeds,
whether the output fingerprints were equal, and each end-to-end metric's
parent and change values over those seeds.  A record holds the workloads
the benchmark had when it was measured, which must be benchmark workloads
still; a workload added later is absent from older records."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_holds_every_end_to_end_metric_of_its_workloads(path):
    record = json.loads(path.read_text())
    for key in ("what", "host", "parent", "change", "workloads"):
        assert record.get(key), key
    known = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(record["workloads"]) <= known, sorted(set(record["workloads"]) - known)
    for workload, entry in record["workloads"].items():
        seeds = entry["seeds"]
        assert seeds and len(set(seeds)) == len(seeds), workload
        assert isinstance(entry["fingerprints_equal"], bool), workload
        for metric in (m["name"] for m in BENCHMARK["end_to_end"]):
            for side in ("parent", "change"):
                values = entry["metrics"][metric][side]
                runs = values["runs"]
                assert len(runs) == len(seeds), (workload, metric, side)
                assert all(math.isfinite(x) for x in runs), (workload, metric)
                assert math.isfinite(values["median"]), (workload, metric)
