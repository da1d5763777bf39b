"""Micro-benchmarks of the library's hot loops (real wall-clock).

The figure benches report *simulated* engine seconds; these benchmark the
actual Python implementation with repeated timed rounds so regressions in
the optimizer or the mechanisms show up directly:

* one PSGD epoch on each execution path — "vectorized" (block mini-batch
  matrices, the default) vs "scalar" (the per-example reference the
  equivalence suite pins the fast path to),
* one mini-batch gradient,
* one spherical-Laplace draw vs one epoch's worth of per-batch Gaussian
  draws — the bolt-on-vs-white-box runtime story at its smallest scale.

Two CLI modes gate the perf story in CI:

* ``--compare-paths`` times scalar vs vectorized epochs at the standard
  shape (m=5000, d=50, b=50) and **exits 1 below 3x** — per-example loops
  must not creep back into the hot path;
* ``--multi-model`` times fused K-model grid training
  (:class:`repro.optim.MultiModelPSGD`) against K sequential vectorized
  runs at K in {4, 16, 64} and **exits 1 if fused falls below 3x at
  K=16** — the second multiplicative speedup stacked on vectorization.

Both modes write every timing to ``BENCH_hotloops.json`` next to the repo
root (scalar / vectorized / fused), so future PRs inherit a
machine-readable perf trajectory.

Each gate comes back as a :class:`Gate`, and :func:`finish` records it:
the perf trajectory (full shape only), the ``--report`` entry and the
exit status. ``bench_service.py`` records its gates through the same
two names.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

# Direct script execution (`python benchmarks/bench_hotloops.py`) puts only
# benchmarks/ on sys.path; make the package and tests.conftest importable
# the same way conftest.py does for pytest runs.
_here = pathlib.Path(__file__).resolve().parent
for _path in (str(_here.parent / "src"), str(_here.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from repro.core.mechanisms import (
    GaussianMechanism,
    PrivacyParameters,
    SphericalLaplaceMechanism,
)
from repro.optim.losses import LogisticLoss
from repro.optim.psgd import ModelSpec, MultiModelPSGD, PSGD, PSGDConfig, run_psgd
from repro.optim.schedules import ConstantSchedule
from tests.conftest import make_binary_data

M, D, BATCH = 5000, 50, 50
X, Y = make_binary_data(M, D, seed=77)
LOSS = LogisticLoss()

#: --smoke shape: small enough for a CI runner's minute budget, big
#: enough that the >= 3x gates still hold with margin (the speedups are
#: structural — vectorization and scan fusion — not cache artefacts).
SMOKE_M, SMOKE_D = 1200, 30


def _set_shape(m: int, d: int) -> None:
    """Swap the benchmark dataset (used by --smoke; batch size stays)."""
    global M, D, X, Y
    M, D = m, d
    X, Y = make_binary_data(M, D, seed=77)

#: --compare-paths fails below this vectorized-over-scalar speedup.
SPEEDUP_FLOOR = 3.0

#: --multi-model fails below this fused-over-sequential speedup at K=16.
FUSED_SPEEDUP_FLOOR = 3.0
FUSED_GATE_K = 16
MULTI_MODEL_KS = (4, 16, 64)

#: Machine-readable perf trajectory, written by both CLI modes.
RESULTS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotloops.json"


def _run_epoch(execution: str):
    return run_psgd(
        LOSS, X, Y, ConstantSchedule(0.01), passes=1, batch_size=BATCH,
        random_state=0, execution=execution,
    )


def bench_psgd_epoch(benchmark):
    result = benchmark(lambda: _run_epoch("vectorized"))
    assert result.updates == M // BATCH


def bench_psgd_epoch_scalar(benchmark):
    result = benchmark(lambda: _run_epoch("scalar"))
    assert result.updates == M // BATCH


def bench_minibatch_gradient(benchmark):
    w = np.zeros(D)
    gradient = benchmark(lambda: LOSS.batch_gradient(w, X[:BATCH], Y[:BATCH]))
    assert gradient.shape == (D,)


def bench_bolton_noise_total(benchmark):
    """Everything the bolt-on approach adds at runtime: ONE draw."""
    mechanism = SphericalLaplaceMechanism()
    privacy = PrivacyParameters(0.1)
    rng = np.random.default_rng(0)
    noise = benchmark(lambda: mechanism.sample(D, 1e-3, privacy, rng))
    assert noise.shape == (D,)


def bench_whitebox_noise_total(benchmark):
    """What SCS13/BST14 add per epoch: one Gaussian draw per mini-batch."""
    mechanism = GaussianMechanism()
    privacy = PrivacyParameters(0.1, 1e-8)
    rng = np.random.default_rng(0)
    draws_per_epoch = M // BATCH

    def per_epoch():
        return [
            mechanism.sample(D, 1e-3, privacy, rng)
            for _ in range(draws_per_epoch)
        ]

    draws = benchmark(per_epoch)
    assert len(draws) == draws_per_epoch


# -- the scalar-vs-vectorized CI gate ----------------------------------------


def _best_of(fn, rounds: int = 3, warmup: int = 1) -> float:
    """Minimum wall-clock seconds of ``fn`` over ``rounds`` timed runs."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def compare_paths(rounds: int = 3) -> Gate:
    """Time one PSGD epoch per execution path; the gate is the speedup.

    Also asserts the two paths agree on the model they produce — a timing
    comparison of divergent computations would be meaningless.
    """
    vectorized = _run_epoch("vectorized")
    scalar = _run_epoch("scalar")
    max_diff = float(np.abs(vectorized.model - scalar.model).max())
    assert max_diff <= 1e-12, f"paths diverged: max |dw| = {max_diff:.3e}"

    scalar_s = _best_of(lambda: _run_epoch("scalar"), rounds)
    vectorized_s = _best_of(lambda: _run_epoch("vectorized"), rounds)
    speedup = scalar_s / vectorized_s
    print(f"hot-loop shape: m={M}, d={D}, b={BATCH} (one epoch, best of {rounds})")
    print(f"scalar epoch:     {scalar_s * 1e3:8.2f} ms")
    print(f"vectorized epoch: {vectorized_s * 1e3:8.2f} ms")
    print(f"speedup:          {speedup:8.2f}x  (gate: >= {SPEEDUP_FLOOR}x)")
    print(f"path agreement:   max |dw| = {max_diff:.3e} (<= 1e-12)")
    return Gate(
        "vectorized_vs_scalar",
        "wall-clock speedup, vectorized over scalar epoch",
        speedup,
        SPEEDUP_FLOOR,
        {"m": M, "d": D, "batch_size": BATCH},
        checks=[(
            not speedup >= SPEEDUP_FLOOR,
            f"FAIL: vectorized path regressed below {SPEEDUP_FLOOR}x",
        )],
        results={
            "scalar_epoch_s": scalar_s,
            "vectorized_epoch_s": vectorized_s,
            "vectorized_speedup": speedup,
        },
    )


# -- the fused-vs-sequential multi-model gate ---------------------------------


def _grid_specs(k: int) -> list:
    """K grid candidates: a regularization sweep at the standard shape."""
    lambdas = np.logspace(-4, -1, k)
    return [
        ModelSpec(LogisticLoss(regularization=float(lam)), ConstantSchedule(0.01))
        for lam in lambdas
    ]


def _run_sequential_grid(specs, perm):
    results = []
    for spec in specs:
        config = PSGDConfig(schedule=spec.schedule, passes=1, batch_size=BATCH)
        results.append(PSGD(spec.loss, config).run(X, Y, permutation=perm))
    return results


def _run_fused_grid(specs, perm):
    return MultiModelPSGD(specs, passes=1, batch_size=BATCH).run(X, Y, permutation=perm)


def multi_model(rounds: int = 3, ks=MULTI_MODEL_KS) -> Gate:
    """Time fused K-model grid training against K sequential runs.

    The gate is the fused speedup at K=16. Both paths train the
    same candidates over the same permutation, and their models are
    checked to be bitwise equal first — the fused path must be the same
    algorithm, only faster.
    """
    perm = np.random.default_rng(7).permutation(M)
    print(f"multi-model shape: m={M}, d={D}, b={BATCH} (one epoch, best of {rounds})")
    gate_speedup = float("nan")
    table = {}
    for k in ks:
        specs = _grid_specs(k)
        fused = _run_fused_grid(specs, perm)
        sequential = _run_sequential_grid(specs, perm)
        max_diff = max(
            float(np.abs(fused.models[i] - sequential[i].model).max())
            for i in range(k)
        )
        assert max_diff == 0.0, f"fused diverged at K={k}: {max_diff:.3e}"

        sequential_s = _best_of(lambda: _run_sequential_grid(specs, perm), rounds)
        fused_s = _best_of(lambda: _run_fused_grid(specs, perm), rounds)
        speedup = sequential_s / fused_s
        table[k] = {
            "sequential_s": sequential_s,
            "fused_s": fused_s,
            "speedup": speedup,
            "max_model_diff": max_diff,
        }
        gate = f"  (gate: >= {FUSED_SPEEDUP_FLOOR}x)" if k == FUSED_GATE_K else ""
        print(
            f"K={k:3d}: sequential {sequential_s * 1e3:8.2f} ms"
            f"   fused {fused_s * 1e3:8.2f} ms"
            f"   speedup {speedup:6.2f}x{gate}"
        )
        if k == FUSED_GATE_K:
            gate_speedup = speedup
    return Gate(
        "fused_multi_model",
        f"fused over sequential speedup at K={FUSED_GATE_K}",
        gate_speedup,
        FUSED_SPEEDUP_FLOOR,
        {"m": M, "d": D, "batch_size": BATCH},
        checks=[(
            not gate_speedup >= FUSED_SPEEDUP_FLOOR,
            f"FAIL: fused multi-model path below {FUSED_SPEEDUP_FLOOR}x "
            f"at K={FUSED_GATE_K}",
        )],
        results={"multi_model": table},
    )


def _write_results(**updates) -> None:
    """Merge timings into the BENCH_hotloops.json perf trajectory."""
    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.setdefault("shape", {"m": M, "d": D, "batch_size": BATCH})
    for key, value in updates.items():
        if isinstance(value, dict):
            merged = payload.get(key, {})
            merged.update({str(inner): item for inner, item in value.items()})
            payload[key] = merged
        else:
            payload[key] = value
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULTS_PATH.name}")


def write_report(path, **gates) -> None:
    """Merge per-gate summaries into the CI report file at ``path``.

    Unlike :func:`_write_results` (the full-shape perf trajectory under
    version control), the report is written at *any* shape — it is what
    CI uploads as a workflow artifact and renders into the job's step
    summary (``benchmarks/report_summary.py``), so a smoke run's gate
    ratios are readable from the Checks tab without digging through logs.
    Each gate entry carries at least ``value``/``floor``/``passed``.
    """
    path = pathlib.Path(path)
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = {}
    gates_payload = payload.setdefault("gates", {})
    for name, entry in gates.items():
        gates_payload[name] = entry
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote report {path}")


@dataclass
class Gate:
    """One gate's outcome, as :func:`finish` records it.

    ``name`` keys the gate's ``--report`` entry: ``metric``, ``value``,
    ``floor``, ``shape``, ``passed`` and the ``extra`` fields. A note
    (informational, it never gates) has no name. ``results`` are the
    gate's ``BENCH_hotloops.json`` updates, ``checks`` its
    ``(failed, FAIL line)`` pairs, and ``artifacts`` the files (name ->
    text) written beside the report.
    """

    name: Optional[str] = None
    metric: str = ""
    value: object = None
    floor: object = None
    shape: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not any(failed for failed, _ in self.checks)


def finish(gates, *, report=None, write: bool = True, gate: bool = True) -> int:
    """Record ``gates`` and return the exit status they earn.

    Merges their results into ``BENCH_hotloops.json`` when ``write`` (the
    full shape), and their entries and artifacts into the ``report`` file
    at any shape; prints the FAIL line of every failed check, or PASS.
    Returns 1 if a check failed and ``gate`` is set, else 0.
    """
    results = {key: value for g in gates for key, value in g.results.items()}
    if write and results:
        _write_results(**results)
    if report is not None:
        entries = {
            g.name: {
                "metric": g.metric,
                "value": g.value,
                "floor": g.floor,
                "passed": g.passed,
                "shape": g.shape,
                **g.extra,
            }
            for g in gates
            if g.name is not None
        }
        if entries:
            write_report(report, **entries)
        for g in gates:
            for name, text in g.artifacts.items():
                (pathlib.Path(report).resolve().parent / name).write_text(text)
    failed = [line for g in gates for bad, line in g.checks if bad]
    for line in failed:
        print(line)
    if not failed and any(g.checks for g in gates):
        print("PASS")
    return int(gate and bool(failed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare-paths",
        action="store_true",
        help="time scalar vs vectorized PSGD epochs and fail (exit 1) if "
        f"the vectorized path is below {SPEEDUP_FLOOR}x",
    )
    parser.add_argument(
        "--multi-model",
        action="store_true",
        help="time fused vs sequential K-model grid training at K in "
        f"{MULTI_MODEL_KS} and fail (exit 1) if fused is below "
        f"{FUSED_SPEEDUP_FLOOR}x at K={FUSED_GATE_K}",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timed rounds per path (default 3)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run: shrink the shape to m={SMOKE_M}, d={SMOKE_D} "
        "(and skip K=64) while still enforcing the >= 3x gates and the "
        "path-agreement asserts; results are NOT written to "
        "BENCH_hotloops.json",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="also merge per-gate summaries (value/floor/passed) into this "
        "JSON file — written at any shape, for CI artifacts + step summary",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be a positive integer, got {args.rounds}")
    if not args.compare_paths and not args.multi_model:
        parser.print_help()
        return 0
    if args.smoke:
        _set_shape(SMOKE_M, SMOKE_D)
        print(f"SMOKE mode: m={M}, d={D} (gates unchanged)")
    gates = []
    if args.compare_paths:
        gates.append(compare_paths(args.rounds))
    if args.multi_model:
        ks = tuple(k for k in MULTI_MODEL_KS if k <= 16) if args.smoke else MULTI_MODEL_KS
        gates.append(multi_model(args.rounds, ks=ks))
    return finish(gates, report=args.report, write=not args.smoke)

if __name__ == "__main__":
    sys.exit(main())
