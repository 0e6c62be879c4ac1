"""Tests of the benchmark's own checks and tracer.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

Every checker must accept a correct output and reject a corrupted one:
a swapped table entry, an off-by-one count, a wrong class size.  The
quick mode runs every workload's jobs and checks on tiny inputs.
"""
from __future__ import annotations

import copy
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workload_build  # noqa: E402
import workload_census  # noqa: E402
import workload_count  # noqa: E402
from bracelab.algebras import catalog  # noqa: E402
from bracelab.errors import SearchLimitExceeded  # noqa: E402

SEED = 7


def swap_entries(table: np.ndarray, row: int = 1) -> np.ndarray:
    """The table with two entries of one row exchanged."""
    out = table.copy()
    out[row, 1], out[row, 2] = table[row, 2], table[row, 1]
    return out


def run_quick(module, workdir: Path):
    """(job, output) for every job of a workload on tiny inputs, checks asserted."""
    pairs = []
    for job in module.make_jobs(SEED, 1, True, workdir):
        out = job.run(0)
        assert job.verify(0, out) == [], (job.name, job.verify(0, out))
        pairs.append((job, out))
    return pairs


# -- quick mode -------------------------------------------------------------


def test_quick_mode_passes_every_check():
    with tempfile.TemporaryDirectory() as tmp:
        for module in (workload_build, workload_count, workload_census):
            assert run_quick(module, Path(tmp))


# -- build ------------------------------------------------------------------


def test_build_checks_reject_corruptions():
    with tempfile.TemporaryDirectory() as tmp:
        pairs = run_quick(workload_build, Path(tmp))
    skew_only = [(j, o) for j, o in pairs if not o["biskew"]]
    assert skew_only, "the quick inputs must include a brace that is not bi-skew"
    for job, out in pairs:
        for key in ("add", "mult", "read_add", "read_mult"):
            bad = dict(out, **{key: swap_entries(out[key])})
            assert job.check(0, bad), (job.name, key)
        assert job.check(0, dict(out, biskew=not out["biskew"])), job.name
    job, out = skew_only[0]
    w = out["witness"]
    later = type(w)(w.a + 1, w.b, w.c, w.left, w.right)
    assert job.check(0, dict(out, witness=later)), "a later witness must be rejected"
    hw = out["holomorph_swapped"]
    assert job.check(0, dict(out, holomorph_swapped=type(hw)(hw.element, hw.y, hw.x) if hw.x != hw.y
                            else type(hw)(hw.element + 1, hw.x, hw.y)))


def test_square_zero_set_matches_definition():
    base = catalog("sixdim_wedge", 3)
    for basis in (np.eye(6, dtype=np.int64), inputs.invertible_matrix(6, 3, inputs.stream(SEED))):
        consts = inputs.change_basis(base.consts, basis, 3)
        digits = checks.digit_matrix(3**6, 3, 6)
        squares = np.einsum("xi,xj,ijl->xl", digits, digits, consts) % 3
        zero = {int(i) for i in np.nonzero(~squares.any(axis=1))[0]}
        assert checks.square_zero_set(3, basis) == zero
        assert len(zero) == 189


def test_semidirect_factorization_orders():
    h = np.add.outer(np.arange(7), np.arange(7)) % 7
    j = np.add.outer(np.arange(3), np.arange(3)) % 3
    add = checks.semidirect_table(h, j, inputs.unit_action(7, 2, 3))
    left, right = list(range(0, 21, 3)), list(range(3))
    circle = checks.factorization_circle(add, left, right)
    want = checks.factor_order_multiset(add, left, right)
    assert checks.order_multiset_errors(circle, want) == []
    assert checks.order_multiset_errors(swap_entries(circle), want)
    assert checks.first_law_failure(add, circle) is None


# -- count ------------------------------------------------------------------


def _count_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        return run_quick(workload_count, Path(tmp))


def test_count_checks_reject_corruptions():
    pairs = _count_outputs()
    library = [(j, o) for j, o in pairs if not j.name.startswith("cli:")]
    for job, outs in library:
        for i, out in enumerate(outs):
            for key in ("count", "aut_brace"):
                bad = copy.deepcopy(outs)
                bad[i]["report"][key] = str(int(out["report"][key]) + 1)
                assert job.check(0, bad), (job.name, i, key)
            if out["reciprocity"] is not None:
                bad = copy.deepcopy(outs)
                bad[i]["reciprocity"]["count_swapped"] = str(int(out["reciprocity"]["count_swapped"]) + 1)
                assert job.check(0, bad), (job.name, i, "count_swapped")


def test_count_closed_forms_and_brute_force():
    # C3^3 additive group: |GL(3,3)| = 11232; Heis(3) circle group: 9 * 48 = 432
    out = {"report": {"galois_group": "M(3)", "type": "C3 x C3 x C3", "aut_mult": "432",
                      "aut_add": "11232", "aut_brace": "36", "count": "12"}, "reciprocity": None}
    brace = workload_count._ring("degraaf_A340", 3)[1]
    add, mult = brace.add.table, brace.mult.table
    assert checks.closed_form_aut_order(add) == 11232
    assert checks.closed_form_aut_order(mult) == 432
    bad = copy.deepcopy(out)
    bad["report"].update(aut_add="11231")
    assert checks.count_report_errors(workload_count._as_ints(bad["report"]), 11232, 432)
    # order 8: a consistent but wrong triple is caught by brute force only
    small = workload_count._ring("truncated_poly", 2, m=3)[1]
    good = {"report": {"galois_group": "C2 x C4", "type": "C2 x C2 x C2", "aut_mult": "8",
                       "aut_add": "168", "aut_brace": "4", "count": "2"}, "reciprocity": None}
    assert workload_count.brace_errors("t", small.add.table, small.mult.table, good) == []
    wrong = copy.deepcopy(good)
    wrong["report"].update(aut_brace="8", count="1")
    assert workload_count.brace_errors("t", small.add.table, small.mult.table, wrong)


def test_count_relabelling_and_cli_checks():
    pairs = _count_outputs()
    cli_job, outs = next((j, o) for j, o in pairs if j.name.startswith("cli:"))
    (code, text), = outs
    assert cli_job.check(0, outs) == []
    assert cli_job.check(0, [(code, text.replace("count=12", "count=13"))])
    assert cli_job.check(0, [(1, text)])
    job, outs = next((j, o) for j, o in pairs if j.name == "ring:degraaf_A340:p3")
    bad = copy.deepcopy(outs)
    bad[0]["report"]["galois_group"] = "unrecognized"
    assert job.check(0, bad), "a report that changes with the labelling must be rejected"


def test_known_failure_is_the_only_tolerated_exception():
    job = workload_count._failing_job(1)
    assert job.verify(0, SearchLimitExceeded(workload_count.FAILING_BUDGET)) == []
    assert job.verify(0, SearchLimitExceeded(500))
    assert job.verify(0, ValueError("boom"))
    other = next(j for j in workload_count.make_jobs(SEED, 1, True, Path(tempfile.gettempdir()))
                 if j.name.startswith("ring:"))
    assert other.verify(0, SearchLimitExceeded(workload_count.FAILING_BUDGET))


# -- census -----------------------------------------------------------------


def test_census_checks_reject_corruptions():
    import dataclasses

    with tempfile.TemporaryDirectory() as tmp:
        pairs = run_quick(workload_census, Path(tmp))
    for job, outs in pairs:
        out = max(outs, key=lambda o: len(o["census"].entries))
        table = out["group"].table
        auts = np.array(out["auts"].elements)
        circles = [b.mult.table for b in out["braces"]]
        classes = [(e.size, e.brace.mult.table) for e in out["census"].entries]
        raw = out["census"].raw_count
        assert checks.census_errors(table, auts, circles, classes, raw) == []
        size, rep = classes[0]
        assert checks.census_errors(table, auts, circles, [(size + 1, rep)] + classes[1:], raw)
        assert checks.census_errors(table, auts, circles, classes, raw + 1)
        bad = circles[:-1] + [swap_entries(circles[-1])]
        assert checks.census_errors(table, auts, bad, classes, raw)
        assert checks.census_errors(table, auts, circles, classes[1:], raw)
        assert checks.automorphism_list_errors(table, auts[1:], auts.shape[0])
        missing = dict(out, census=dataclasses.replace(out["census"], entries=out["census"].entries[1:]))
        assert job.check(0, [missing if o is out else o for o in outs]), "a missing class must be rejected"


def test_published_totals():
    assert checks.totals_errors(8, {"C8": 5, "C2xC4": 14, "C2^3": 8, "D4": 12, "Q8": 8},
                                {"C8", "C2xC4", "C2^3"}) == []
    assert checks.totals_errors(8, {"C8": 5, "C2xC4": 14, "C2^3": 8, "D4": 12, "Q8": 7},
                                {"C8", "C2xC4", "C2^3"})


# -- tracer -----------------------------------------------------------------


def test_tracer_self_time_partitions_the_span():
    import time

    from spans import Tracer

    tracer = Tracer()

    def busy(seconds):
        end = time.process_time() + seconds
        while time.process_time() < end:
            pass

    inner = tracer.wrap("perms.inner", lambda: busy(0.02))
    leaf = tracer.wrap_aggregate("perms.compose", lambda: busy(0.01))

    def outer_body():
        busy(0.02)
        inner()
        leaf()

    outer = tracer.wrap("groups.outer", outer_body)
    outer()
    total = tracer.inclusive["groups.outer"]
    parts = sum(tracer.self_time.values())
    assert abs(total - parts) < 1e-6
    assert tracer.self_time["groups.outer"] >= 0.02 - 1e-3
    assert tracer.calls["perms.compose"] == 1
    assert tracer.module_self()["perms"] >= 0.03 - 1e-3


# -- metric names -------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    import json

    import run
    import spans

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = {"inclusive": {}, "calls": {}, "perms": {}, "module_self": {m: 0.0 for m in spans.MODULES}}
    produced = run.per_layer({"layers": layers}, 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(produced)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"] + spec["end_to_end"])
    e2e = run.end_to_end({"job_times": {"a": [1.0]}, "peak_rss_mb": 1.0}, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [w["name"] for w in spec["workloads"]] == list(run.PASS_SECONDS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except Exception:
            failed += 1
            print(f"FAIL  {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
