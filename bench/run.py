"""charq benchmark: one command, every metric by name and unit, outputs checked.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh child
process (``worker.py``) of the same interpreter, one after another, so the
load is single-threaded and closed-loop: the next case starts when the
previous one has finished.

``--trace 0`` reports the end-to-end metrics:

    wall_s          median over passes of one pass over the case list
    largest_case_s  median over runs of the heaviest case alone, cold
    peak_rss_mb     peak resident memory of the measuring child
    setup_s         median over probe children of the time from spawning
                    the process to its first case (interpreter start,
                    ``import charq``, case generation)

Times are normalised against a reference loop run around them (see
``speed.py``), because the shared machines this runs on drift in speed by
more than any useful bound.

``--trace 1`` reports per-layer metrics from a child with spans around each
layer, plus ``trace.overhead_ratio`` against an untraced child of the same
run.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A case fails when its routes
disagree, its CLI call exits non-zero, it raises, or the SHA-256 of its
canonical output differs from the one pinned in ``digests.json``.

Exits 1 without a result line if a child cannot run, for instance because
the checkout has no ``src/charq``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

from speed import NormalisedClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("char-routes", "q-tokuyama", "lgv-paths", "cli-mix")
SETUP_PROBES = 21
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    pass


def _child(args: list[str]) -> list[str]:
    return [sys.executable, "-I", str(BENCH / "worker.py")] + args


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for ``proc`` and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child process timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"child process exited with code {proc.returncode}")
    return out


def probe_setup(workload: str, seed: int, deadline: float) -> float:
    """Normalised seconds from spawning a child to its ``ready`` line."""
    clock = NormalisedClock(repeats=3)
    t0 = perf_counter()
    proc = subprocess.Popen(_child(["probe", "--workload", workload, "--seed", str(seed)]),
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    clock.add("setup", perf_counter() - t0)
    _finish(proc, deadline)
    if line.strip() != "ready":
        raise ChildFailed("probe child did not get ready")
    return clock.flush()["setup"]


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        args.append("--trace")
    proc = subprocess.Popen(_child(args), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = _finish(proc, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed("child process printed no result")
    return json.loads(lines[-1])


def median(values) -> float:
    return statistics.median(list(values))


def pass_s(passes) -> float:
    """One pass, case by case: the sum over cases of each case's median
    over passes."""
    return sum(median(p["case_s"][key] for p in passes) for key in passes[0]["case_s"])


def end_to_end(workload, seed, seconds, deadline) -> tuple[dict, int, int]:
    setups = [probe_setup(workload, seed, deadline) for _ in range(SETUP_PROBES)]
    res = measure(workload, seed, seconds, False, deadline)
    passes = res["passes"]
    metrics = {
        "wall_s": (pass_s(passes), "s"),
        "largest_case_s": (median(t for p in passes for t in p["largest_case_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (median(setups), "s"),
    }
    return metrics, res["attempted"], res["failed"]


# per-layer metric -> (unit, how to read it from one traced pass)
def _span(field, name):
    return lambda p: p["layers"][field].get(name, 0)


def _count(name):
    return lambda p: p["layers"]["counts"].get(name, 0)


def _cache(name):
    return lambda p: p["caches"].get(name, 0)


def _ratio(num, den):
    return lambda p: num(p) / den(p) if den(p) else 0.0


PER_LAYER = {
    "algebra.exact_div.calls": ("count", _span("calls", "algebra.exact_div")),
    "algebra.exact_div.self_s": ("s", _span("self_s", "algebra.exact_div")),
    "algebra.exact_div.num_terms": ("count", _count("algebra.exact_div.num_terms")),
    "algebra.exact_div.den_terms": ("count", _count("algebra.exact_div.den_terms")),
    "algebra.exact_div.quot_terms": ("count", _count("algebra.exact_div.quot_terms")),
    "algebra.determinant.calls": ("count", _span("calls", "algebra.determinant")),
    "algebra.determinant.self_s": ("s", _span("self_s", "algebra.determinant")),
    "algebra.determinant.bareiss_calls": ("count", _count("algebra.determinant.bareiss_calls")),
    "algebra.mul.calls": ("count", _span("calls", "algebra.mul")),
    "algebra.mul.self_s": ("s", _span("self_s", "algebra.mul")),
    "algebra.mul.term_pairs": ("count", _count("algebra.mul.term_pairs")),
    "algebra.mul.out_terms": ("count", _count("algebra.mul.out_terms")),
    "algebra.mul.max_out_terms": ("count", _count("algebra.mul.max_out_terms")),
    "algebra.mul.merge_ratio": ("ratio", _ratio(_count("algebra.mul.out_terms"),
                                                _count("algebra.mul.term_pairs"))),
    "algebra.add.calls": ("count", _span("calls", "algebra.add")),
    "algebra.add.self_s": ("s", _span("self_s", "algebra.add")),
    "algebra.add.in_terms": ("count", _count("algebra.add.in_terms")),
    "algebra.series.calls": ("count", _span("calls", "algebra.series")),
    "algebra.series.self_s": ("s", _span("self_s", "algebra.series")),
    "algebra.series.s": ("s", _span("total_s", "algebra.series")),
    "algebra.specialize.self_s": ("s", _span("self_s", "algebra.specialize")),
    "algebra.serialise.self_s": ("s", _span("self_s", "algebra.serialise")),
    "algebra.serialise.terms": ("count", _count("algebra.serialise.terms")),
    "tableaux.enumerate.tableaux": ("count", _count("tableaux.enumerate.tableaux")),
    "tableaux.enumerate.self_s": ("s", _span("self_s", "tableaux.enumerate")),
    "tableaux.validate.calls": ("count", _span("calls", "tableaux.validate")),
    "tableaux.validate.self_s": ("s", _span("self_s", "tableaux.validate")),
    "tableaux.validate.per_tableau": ("ratio", _ratio(_span("calls", "tableaux.validate"),
                                                      _count("tableaux.enumerate.tableaux"))),
    "tableaux.weight.self_s": ("s", _span("self_s", "tableaux.weight")),
    "tableaux.weight_sum.calls": ("count", _span("calls", "tableaux.weight_sum")),
    "tableaux.weight_sum.self_s": ("s", _span("self_s", "tableaux.weight_sum")),
    "tableaux.weight_sum.out_terms": ("count", _count("tableaux.weight_sum.out_terms")),
    "lattice.to_paths.self_s": ("s", _span("self_s", "lattice.to_paths")),
    "lattice.path_weight.self_s": ("s", _span("self_s", "lattice.path_weight")),
    "lattice.non_intersecting.self_s": ("s", _span("self_s", "lattice.non_intersecting")),
    "characters.h_cache.hits": ("count", _cache("characters.hits")),
    "characters.h_cache.misses": ("count", _cache("characters.misses")),
    "qfunctions.q_md_cache.hits": ("count", _cache("qfunctions.hits")),
    "qfunctions.q_md_cache.misses": ("count", _cache("qfunctions.misses")),
    "characters.route.def.s": ("s", _span("total_s", "characters.route.def")),
    "characters.route.hdet.s": ("s", _span("total_s", "characters.route.hdet")),
    "characters.route.jt.s": ("s", _span("total_s", "characters.route.jt")),
    "characters.route.tab.s": ("s", _span("total_s", "characters.route.tab")),
    "qfunctions.q_tableaux.s": ("s", _span("total_s", "qfunctions.q_tableaux")),
    "qfunctions.q_determinantal.s": ("s", _span("total_s", "qfunctions.q_determinantal")),
    "qfunctions.tokuyama.s": ("s", _span("total_s", "qfunctions.tokuyama")),
    "verify.suite.s": ("s", _span("total_s", "verify.suite")),
    "cli.main.self_s": ("s", _span("self_s", "cli.main")),
    "cli.emit.bytes": ("bytes", lambda p: p["emitted"]),
    "trace.spans": ("count", lambda p: p["layers"]["spans"]),
}


def per_layer(workload, seed, seconds, deadline) -> tuple[dict, int, int]:
    plain = measure(workload, seed, seconds / 3, False, deadline)
    traced = measure(workload, seed, seconds * 2 / 3, True, deadline)
    passes = traced["passes"]
    metrics = {name: (statistics.median_low(read(p) for p in passes), unit)
               for name, (unit, read) in PER_LAYER.items()}
    metrics["trace.wall_s"] = (pass_s(passes), "s")
    metrics["trace.overhead_ratio"] = (pass_s(passes) / pass_s(plain["passes"]), "ratio")
    return (metrics, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "charq" / "__init__.py").is_file():
        print(f"error: no charq package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = monotonic() + CHILD_TIMEOUT_S
    try:
        measure_all = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure_all(args.workload, args.seed, args.seconds,
                                                 deadline)
    except (ChildFailed, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
