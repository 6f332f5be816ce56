"""Self-tests of the benchmark (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths`` is untouched): they test the instrument,
not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import metrics
import spans

BENCH = Path(__file__).resolve().parent

DIGEST_SNIPPET = """
import gen
print(gen.digest([
    gen.people_rows(7, "a", 50),
    gen.explore_ops(7, 1, 400, 50, 20, 40),
    gen.clean_ops(7, 0, 100, 50, 30), gen.clean_ops(7, 1, 100, 50, 30),
    gen.scan_rows(7, 50), gen.scan_statements(), gen.scan_corrections(7, 2, 2, 3, 50),
    gen.estate_updates(7, 3, 30, 50, "setup"), gen.estate_finds(7, 12, 4),
]))
"""


def digest_in_subprocess(hash_seed: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", DIGEST_SNIPPET], cwd=BENCH, text=True, check=True,
        stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    return done.stdout.strip()


def test_generators_repeat_across_processes_and_hash_seeds():
    digests = {digest_in_subprocess(seed) for seed in ("0", "1", "4242")}
    assert len(digests) == 1


def test_generators_depend_on_the_seed():
    assert gen.digest(gen.explore_ops(1, 0, 200, 50, 20, 40)) != gen.digest(
        gen.explore_ops(2, 0, 200, 50, 20, 40)
    )
    assert gen.digest(gen.people_rows(1, "a", 20)) != gen.digest(gen.people_rows(1, "b", 20))


def test_generated_streams_are_valid():
    ops = gen.explore_ops(3, 0, 5000, 100, 20, 40)
    depth = 0
    for op in ops:
        if op[0] == "update":
            depth += 1
        elif op[0] == "undo":
            assert op[1] <= depth  # never undoes more than it wrote
            depth -= op[1]
    assert {op[0] for op in ops} == {"query", "update", "undo"}
    storm = gen.clean_ops(3, 1, 300, 100, 50)
    assert len(storm) == 300
    for burst in gen.scan_corrections(3, 2, 4, 12, 1000):
        for cells in burst:
            assert len({(row, column) for row, column, _ in cells}) == 12
            assert all(2 <= column < gen.SCAN_COLUMNS for _, column, _ in cells)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert metrics.percentile(samples, 0.99) == 990
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(samples[:999], 0.99)  # 9 beyond
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(list(range(100)), 0.95)  # 5 beyond
    assert metrics.percentile(list(range(1, 201)), 0.95) == 190


def test_tail_falls_back_to_the_highest_supported_percentile():
    assert metrics.tail(list(range(1, 1001)), 0.99) == (990, 0.99)
    assert metrics.tail(list(range(1, 201)), 0.99) == (190, 0.95)
    assert metrics.tail(list(range(1, 71)), 0.99) == (53, 0.75)
    assert metrics.tail(list(range(1, 201)), 0.95)[1] == 0.95  # never above what was asked
    with pytest.raises(metrics.TooFewSamples):
        metrics.tail(list(range(30)), 0.99)
    assert metrics.tail(list(range(1, 11)), 0.95, min_beyond=1) == (9, 0.90)


def test_self_time_is_duration_minus_what_children_cover():
    # root [0, 100]; children [10, 40] and [30, 60] overlap; grandchild
    # [15, 20] under the first child; a second root elsewhere.
    tree = [
        [1, "server.request", 0, 100, None, "r"],
        [2, "core.update", 10, 40, 1, "r"],
        [3, "views.apply_update", 30, 60, 1, "r"],
        [4, "summary.lookup", 15, 20, 2, "r"],
        [5, "storage.fetch", 200, 230, None, None],
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 50, 2: 25, 3: 30, 4: 5, 5: 30}
    names = spans.by_name(tree, selfs)
    assert names["core.update"] == {"calls": 1, "total_ms": 30 / 1e6, "self_ms": 25 / 1e6}
    layers = spans.layer_self_ms(names)
    assert layers["server"] == 50 / 1e6 and layers["relational"] == 0.0
    assert set(layers) == set(spans.LAYERS)


def test_orphans_are_adopted_by_their_request_root():
    tree = [
        [1, "client.update", 0, 100, None, 7],
        [2, "server.execute", 20, 80, None, 7],
        [3, "server.execute", 20, 80, None, 8],
    ]
    spans.adopt_orphans(tree, {7: 1})
    assert [span[4] for span in tree] == [None, 1, None]


def test_recorder_nests_by_thread_and_inherits_the_request():
    rec = spans.Recorder()

    class Target:
        def outer(self):
            return self.inner()

        def inner(self):
            return 42

    rec.wrap(Target, "outer", "core.outer", request=lambda args, kwargs: "req")
    rec.wrap(Target, "inner", "summary.inner")
    assert Target().outer() == 42
    inner, outer = rec.spans  # inner ends first
    assert (outer[1], outer[4], outer[5]) == ("core.outer", None, "req")
    assert (inner[1], inner[4], inner[5]) == ("summary.inner", outer[0], "req")
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


def test_benchmark_json_names_what_run_py_prints():
    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json(run.RUN_SECONDS)
    assert [w["name"] for w in declared["workloads"]] == run.WORKLOAD_NAMES
    fake = {
        "correct": True, "attempted": 1, "failed": 0,
        "end_to_end": {name: 1.0 for name in metrics.END_TO_END_NAMES},
        "per_layer": {name: 0.0 for name in metrics.PER_LAYER_NAMES},
    }
    untraced = json.loads(run.contract_line(fake, traced=False))
    traced = json.loads(run.contract_line(fake, traced=True))
    assert list(untraced) == ["correct", "attempted", "failed", "metrics"]
    assert list(untraced["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in declared["per_layer"]]
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert untraced["metrics"].get(metric["name"], traced["metrics"].get(metric["name"]))[
            "unit"
        ] == metric["unit"]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        for m in declared["end_to_end"]
    )
