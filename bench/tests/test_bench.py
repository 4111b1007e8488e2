"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402

charq = worker.import_charq()
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tiny_runner(name, **kw):
    wl = workloads.build(name, tiny=True)
    return worker.Runner(charq, wl, worker.load_pins(name), seed=1, **kw)


# -- the BENCHMARK.json contract ------------------------------------------------


def test_spec_keys_and_workloads():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert "setup_s" in names
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_every_metric_name_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


# -- correctness gate ---------------------------------------------------------------


def test_pinned_digests_are_self_consistent():
    pins = json.loads((BENCH / "digests.json").read_text())
    for name in run.WORKLOADS:
        keys = {c.key for c in workloads.build(name).cases}
        assert set(pins[name]["cases"]) == keys
        assert workloads.workload_digest(pins[name]["cases"]) == pins[name]["digest"]


def test_tiny_pass_is_correct():
    for name in run.WORKLOADS:
        runner = tiny_runner(name)
        runner.one_pass(with_heavy=True)
        assert runner.attempted == len(runner.workload.cases) + worker.HEAVY_REPEATS
        assert runner.failed == 0, runner.failures


def test_disagreeing_route_is_counted_as_failed(monkeypatch):
    hdet = charq.characters.CHAR_ROUTES["hdet"]

    def perturbed(kind, lam, vt):
        return hdet(kind, lam, vt) + 1

    monkeypatch.setitem(charq.characters.CHAR_ROUTES, "hdet", perturbed)
    runner = tiny_runner("char-routes")
    runner.one_pass(with_heavy=False)
    assert runner.failed == runner.attempted == len(runner.workload.cases)


def test_fault_shared_by_every_route_fails_the_digest(monkeypatch):
    # every route agrees on the wrong answer, as a MultiPoly kernel fault would
    for name, route in list(charq.characters.CHAR_ROUTES.items()):
        monkeypatch.setitem(charq.characters.CHAR_ROUTES, name,
                            lambda kind, lam, vt, route=route: route(kind, lam, vt) + 1)
    runner = tiny_runner("char-routes")
    runner.one_pass(with_heavy=False)
    assert runner.failed == runner.attempted
    assert all("digest" in f for f in runner.failures)


def test_raising_case_is_counted_as_failed(monkeypatch):
    def broken(kind, lam, vt):
        raise RuntimeError("boom")

    monkeypatch.setattr(charq.qfunctions, "q_determinantal", broken)
    runner = tiny_runner("q-tokuyama")
    runner.one_pass(with_heavy=False)
    routes_cases = [c for c in runner.workload.cases if c.key.startswith("q-routes")]
    assert runner.failed == len(routes_cases) > 0


def test_verify_output_is_hashed_without_ms():
    line = json.dumps({"suite": "h-diff", "cases": [{"case": 0, "equal": True, "ms": 1.5}]},
                      separators=(",", ":"))
    assert workloads.strip_verify_ms(line + "\n") == \
        '{"suite":"h-diff","cases":[{"case":0,"equal":true}]}\n'


# -- tracing ------------------------------------------------------------------------


def test_tracer_rebinds_every_alias_and_restores_them():
    algebra, characters = charq.algebra, charq.characters
    before = (characters.exact_div, algebra.MultiPoly.__rmul__,
              characters.CHAR_ROUTES["jt"], charq.cli.run_suite)
    t = tracer.Tracer()
    t.install(charq)
    try:
        assert characters.exact_div is algebra.exact_div is not before[0]
        assert algebra.MultiPoly.__rmul__ is not before[1]
        assert characters.CHAR_ROUTES["jt"] is characters.char_flagged_jt
        assert charq.cli.run_suite is charq.verify.run_suite is not before[3]
        vt = algebra.vartable_for(2, 1)
        x1, x2 = algebra.xv(vt, 1), algebra.xv(vt, 2)
        assert 2 * (x1 + x2) == x1 * 2 + x2 * 2
        layers = t.take()
    finally:
        t.uninstall()
    after = (characters.exact_div, algebra.MultiPoly.__rmul__,
             characters.CHAR_ROUTES["jt"], charq.cli.run_suite)
    assert after == before
    assert layers["calls"]["algebra.mul"] == 3
    assert layers["calls"]["algebra.add"] == 2
    assert layers["counts"]["algebra.mul.term_pairs"] == 2 + 1 + 1


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans[:] = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0),
                  ("inner", 5.0, 6.0, 0), ("leaf", 2.0, 3.0, 1)]
    layers = t.take()
    assert layers["self_s"] == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert layers["calls"] == {"outer": 1, "inner": 2, "leaf": 1}


def traced_tiny_pass(name):
    t = tracer.Tracer()
    t.install(charq)
    try:
        runner = tiny_runner(name, tracer=t)
        return runner, runner.one_pass(with_heavy=False)
    finally:
        t.uninstall()


def test_traced_pass_counts_layers():
    runner, p = traced_tiny_pass("lgv-paths")
    assert runner.failed == 0
    layers = p["layers"]
    tableaux = layers["counts"]["tableaux.enumerate.tableaux"]
    assert tableaux > 0
    # once in tableau_to_paths, once more in tableau_weight for nonempty shapes
    assert tableaux < layers["calls"]["tableaux.validate"] <= 2 * tableaux
    assert layers["calls"]["lattice.to_paths"] == tableaux
    # the digest's anchor runs untraced
    assert "tableaux.weight_sum" not in layers["calls"]
    # self times partition the traced time, which lies within the cases'
    assert 0 < sum(layers["self_s"].values()) <= sum(p["case_s"].values())


def test_cache_counts_survive_clearing_before_every_call():
    runner, p = traced_tiny_pass("cli-mix")
    assert runner.workload.cold_cases
    assert p["caches"]["characters.misses"] > 0


# -- the command ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    res = result(bench("--workload", "cli-mix", "--seed", "3", "--seconds", "0.5",
                       "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
