"""One benchmark process: imports the checkout's charq and runs a workload.

    python3 -I bench/worker.py probe --workload W --seed S
    python3 -I bench/worker.py run --workload W --seed S --seconds T [--trace]

``probe`` sets up (interpreter start, ``import charq``, case generation) and
prints ``ready``; ``run.py`` times that from process start.  ``run`` makes
passes over the shuffled case list until the time budget is spent (at least
one pass), and prints one JSON line with per-pass case timings, correctness
counts and, with ``--trace``, per-layer metrics; a traced run also writes
the spans of its last pass to ``bench/out/spans-<workload>.tsv.gz``.

Every pass starts with charq's ``lru_cache``s cleared, as a fresh ``charq``
process would, so each pass does the same work whatever the case order.
After the pass the workload's heaviest case runs ``HEAVY_REPEATS`` more
times, alone and with cleared caches, for ``largest_case_s``.  Case times
are normalised against the reference kernel of ``speed.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import ModuleType

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
HEAVY_REPEATS = 3

sys.path.insert(0, str(BENCH))
from speed import NormalisedClock  # noqa: E402


def import_charq():
    """Import charq from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import charq
    origin = Path(charq.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"charq imported from {origin}, not from {SRC}")
    return charq


def lru_caches(charq) -> dict[str, list]:
    """Every ``lru_cache`` in charq's modules, by module name."""
    return {mod.__name__.removeprefix("charq."):
            [v for v in vars(mod).values() if callable(getattr(v, "cache_info", None))]
            for mod in vars(charq).values()
            if isinstance(mod, ModuleType) and mod.__name__.startswith("charq.")}


def load_pins(name: str) -> dict[str, str]:
    pins = json.loads((BENCH / "digests.json").read_text())
    return pins[name]["cases"]


class Runner:
    def __init__(self, charq, workload, pins, seed, tracer=None):
        from workloads import case_digest
        self.digest = case_digest
        self.workload = workload
        self.pins = pins
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.caches = lru_caches(charq)
        self.cache_stats: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.emitted = 0

    def clear_caches(self):
        """Empty charq's caches, adding their hit and miss counts to
        ``cache_stats`` first (``cache_clear`` resets them)."""
        for mod, group in self.caches.items():
            for fn in group:
                info = fn.cache_info()
                self.cache_stats[f"{mod}.hits"] += info.hits
                self.cache_stats[f"{mod}.misses"] += info.misses
                fn.cache_clear()

    def run_case(self, case) -> float:
        """Time one case and check it; returns the timed seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            agree, value = case.run()
        except Exception:
            dt = perf_counter() - t0
            self._fail(case.key, "raised\n" + traceback.format_exc())
            return dt
        dt = perf_counter() - t0
        if not agree:
            self._fail(case.key, "routes disagree or exit code is not 0")
            return dt
        untraced = (contextlib.nullcontext() if self.tracer is None
                    else self.tracer.suspended())
        with untraced:
            digest = self.digest(case.canon(value))
        if case.emitted is not None:
            self.emitted += case.emitted(value)
        if self.pins.get(case.key) != digest:
            self._fail(case.key, f"digest {digest} does not match the pinned one")
        return dt

    def _fail(self, key: str, why: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{key}: {why}")

    def one_pass(self, with_heavy: bool) -> dict:
        order = list(self.workload.cases)
        self.rng.shuffle(order)
        self.clear_caches()
        self.emitted = 0
        clock = NormalisedClock()
        raw_s = 0.0
        for case in order:
            if self.workload.cold_cases:
                self.clear_caches()
            dt = self.run_case(case)
            clock.add(case.key, dt)
            raw_s += dt
        out = {"case_s": clock.flush(), "emitted": self.emitted}
        if self.tracer is not None:
            # span times are raw; scale them like the pass's case times
            out["layers"] = self.tracer.take(sum(out["case_s"].values()) / raw_s)
            self.clear_caches()
            out["caches"] = dict(self.cache_stats)
            self.cache_stats.clear()
        if with_heavy:
            heavy = next(c for c in self.workload.cases if c.key == self.workload.heavy)
            out["largest_case_s"] = []
            for _ in range(HEAVY_REPEATS):
                self.clear_caches()
                clock = NormalisedClock(repeats=3)
                clock.add(heavy.key, self.run_case(heavy))
                out["largest_case_s"].append(clock.flush()[heavy.key])
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    charq = import_charq()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload)
    pins = load_pins(args.workload)
    if args.mode == "probe":
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(charq)
    runner = Runner(charq, workload, pins, args.seed, tracer)
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(runner.one_pass(with_heavy=not args.trace))
        took = perf_counter() - t0
        if perf_counter() - start + took > args.seconds:
            break
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.tsv.gz")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "attempted": runner.attempted,
                      "failed": runner.failed, "peak_rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
