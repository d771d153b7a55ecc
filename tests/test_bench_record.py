"""The committed benchmark record, BENCH_e2e.json: one row per change, in
the shape of the first row measured for the record, every metric one that
BENCHMARK.json declares."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = json.loads((ROOT / "BENCH_e2e.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
ROWS = RECORD["rows"]
FIRST_MEASURED = 25  # rows before it were backfilled from CHANGES.md


def _row(pr):
    return next(r for r in ROWS if r["pr"] == pr)


def test_one_row_per_pr_in_ascending_order():
    numbers = [r["pr"] for r in ROWS]
    assert numbers == sorted(set(numbers))
    # no PR is left out: a PR with nothing to record has a row saying so
    assert numbers == list(range(1, numbers[-1] + 1))


def test_every_row_has_the_keys_of_the_first_measured_row():
    keys = _row(FIRST_MEASURED).keys()
    for r in ROWS:
        assert keys <= r.keys(), (r["pr"], keys - r.keys())


def test_backfilled_rows_are_flagged():
    for r in ROWS:
        backfilled = r["pr"] < FIRST_MEASURED
        assert r.get("backfilled", False) is backfilled, r["pr"]
        if backfilled:
            # a backfilled figure names the entry it was read from
            assert r["source"] or not r["workloads"], r["pr"]


def test_every_metric_and_workload_is_declared():
    metrics = {m["name"] for m in DECLARED["end_to_end"]}
    workloads = {w["name"] for w in DECLARED["workloads"]}
    for r in ROWS:
        claimed = r["claimed"]
        if claimed is not None:
            assert claimed["metric"] in metrics, r["pr"]
            assert claimed["workload"] in workloads | {"all"}, r["pr"]
        for name, w in r["workloads"].items():
            assert name in workloads, (r["pr"], name)
            for part in ("parent", "change", "change_better_in"):
                assert w[part].keys() <= metrics, (r["pr"], name, part)
