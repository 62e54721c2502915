"""Helpers shared by the benchmark's worker processes.

Statistics (median, tail percentile), per-layer profiling of one conv,
span self times, provenance and result hand-off.  Nothing here imports
the program under test at module level: ``run.py`` imports this file before it knows whether the checkout
holds the program at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Environment every worker process runs with, whatever the caller's.
#: OpenBLAS's helper thread spins on the second core between calls: on a
#: 2-core host it doubled CPU use for no throughput and made run-to-run
#: spread on net-mixed about three times wider.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1"}

#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank ``pct``-th percentile (0 < pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)])


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    still has :data:`TAIL_BEYOND` samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    return float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relerr(got, want) -> float:
    """max |got - want| / max |want| -- the scale the graph suite's
    oracle tolerance is expressed in."""
    import numpy as np

    scale = float(np.abs(want).max()) or 1.0
    return float(np.abs(got.astype(np.float64) - want).max()) / scale


#: Relative error budget against the float64 oracle: the tolerance the
#: graph differential suite holds every path to (Table-3 fp32 budgets
#: for the F(m, 3) tiles the engine picks, with margin for the depth of
#: the scaled networks).
RELERR_BUDGET = 5e-4


# ----------------------------------------------------------------------
# One conv layer, profiled from outside the engine
# ----------------------------------------------------------------------
#: Warm repeats per algorithm when timing a layer's candidates.
PROFILE_REPEATS = 3


def direct_flops(x_shape, w_shape, out_shape) -> float:
    """Multiply-adds of the direct convolution, counted as 2 flops."""
    return (2.0 * x_shape[0] * w_shape[0] * w_shape[1]
            * math.prod(out_shape[2:]) * math.prod(w_shape[2:]))


def _plan_of_run(engine, x_shape, w_shape, padding, algorithm: str, fmr=None):
    """The Winograd plan the engine built for one conv run.

    Matches the plan-cache key on the engine's backend and the full
    problem: input shape, kernel, padding, output channels and, when the
    run pinned one, F(m, r).  A nested run is keyed by its inner problem,
    the channel-stacked r = 3 convolution with padding 0.  More than one
    F(m, r) left after matching is an error, not a guess.
    """
    from repro.core import WinogradPlan
    from repro.core.nested import nested_geometry, stacked_input_shape

    x_shape, kernel, padding = tuple(x_shape), tuple(w_shape[2:]), tuple(padding)
    if algorithm == "nested":
        geom = nested_geometry(kernel)
        x_shape = stacked_input_shape(x_shape[0], x_shape[1], x_shape[2:], padding, geom)
        kernel, padding = geom.sub_kernel, (0,) * geom.ndim
    specs = {
        key.spec for key in engine.plans.keys()
        if key.algorithm == "winograd" and key.backend == engine.backend
        and key.input_shape == x_shape and key.spec.r == kernel
        and key.padding == padding and key.c_out == w_shape[1]
        and (fmr is None or key.spec == fmr)
    }
    if len(specs) != 1:
        raise LookupError(f"{len(specs)} {algorithm} plans match input {x_shape}, "
                          f"kernel {tuple(w_shape)}")
    return WinogradPlan(spec=specs.pop(), input_shape=x_shape, c_out=w_shape[1],
                        padding=padding)


def ops_per_byte(engine, x_shape, w_shape, padding, out_shape, algorithm: str,
                 fmr=None) -> float:
    """Computed arithmetic intensity of a conv layer's main kernel.

    Winograd family: stage-2 flops over the bytes of the U, V and X
    tensors of the plan the engine ran.  Other algorithms: direct-conv
    flops over input + kernel + output bytes.
    """
    if algorithm in ("winograd", "nested"):
        plan = _plan_of_run(engine, x_shape, w_shape, padding, algorithm, fmr)
        ws = plan.workspace_bytes()
        flops = 2.0 * plan.t_matrices * plan.gemm_rows * plan.c_in * plan.c_out
        return flops / (ws["U"] + ws["V"] + ws["X"])
    nbytes = 4.0 * (math.prod(x_shape) + math.prod(w_shape) + math.prod(out_shape))
    return direct_flops(x_shape, w_shape, out_shape) / nbytes


def profile_conv(engine, x, w, padding, chosen: str, fmr=None) -> dict:
    """Warm time of every algorithm the engine serves for one conv layer.

    ``fmr`` is the F(m, r) the layer pins for Winograd, if any; the
    Winograd candidate runs with it, as the graph executor runs it.

    ``regret`` is the chosen algorithm's warm time over the fastest one's;
    ``pred_over_meas`` is the portfolio's ``machine.cost`` prediction for
    the chosen algorithm over its measured warm time.
    """
    from repro.nets.layers import ConvLayerSpec

    layer = ConvLayerSpec(
        network="perfbench", name="node", batch=x.shape[0], c_in=x.shape[1],
        c_out=w.shape[1], image=tuple(x.shape[2:]), padding=tuple(padding),
        kernel=tuple(w.shape[2:]),
    )
    predicted = engine.portfolio.candidates(layer)
    warm = {}
    out_shape = None
    for algo in predicted:
        kw = dict(padding=padding, algorithm=algo,
                  fmr=fmr if algo == "winograd" else None)
        out_shape = engine.run(x, w, **kw).shape
        best = math.inf
        for _ in range(PROFILE_REPEATS):
            t0 = time.perf_counter()
            engine.run(x, w, **kw)
            best = min(best, time.perf_counter() - t0)
        warm[algo] = best
    return {
        "chosen": chosen,
        "warm_ms": {a: 1e3 * s for a, s in warm.items()},
        "regret": warm[chosen] / min(warm.values()),
        "pred_over_meas": predicted[chosen] / warm[chosen],
        "ops_per_byte_computed": ops_per_byte(
            engine, x.shape, w.shape, padding, out_shape, chosen,
            fmr if chosen == "winograd" else None),
    }


def engine_counters(stats: dict) -> dict:
    """Plan-cache and arena hit rates and fallbacks from ``engine.stats()``.
    A lease the arena served without growing counts as a hit."""
    arena = stats["arena"]
    return {
        "engine.plan_hit_rate": stats["plans"]["hit_rate"],
        "engine.arena_hit_rate": (
            (arena["leases"] - arena["grows"]) / arena["leases"] if arena["leases"] else 0.0),
        "engine.fallbacks": stats["fallbacks"],
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def self_times(spans) -> dict[int, float]:
    """Seconds each span spends outside its children (id -> seconds).

    Children of one span never overlap (the tracer nests per thread), so
    a span's self time is its duration minus the sum of its children's.
    """
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def root_of(spans) -> dict[int, int]:
    """span id -> id of its outermost ancestor among ``spans``."""
    parent = {s.span_id: s.parent_id for s in spans}
    roots: dict[int, int] = {}
    for sid in parent:
        chain = [sid]
        while parent.get(chain[-1]) in parent:
            chain.append(parent[chain[-1]])
        for c in chain:
            roots[c] = chain[-1]
    return roots


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _first_line(argv: list[str]) -> str | None:
    try:
        out = subprocess.run(
            argv, capture_output=True, text=True, timeout=20, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return out.splitlines()[0] if out else None


def source_digest(root: Path) -> str:
    """Content digest of ``src/`` -- identifies the program under test
    when the checkout is not a git repository."""
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "git_sha": _first_line(["git", "-C", str(root), "rev-parse", "HEAD"]) or "unknown",
        "src_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cc": _first_line([os.environ.get("CC") or "cc", "--version"]),
        "worker_env": WORKER_ENV,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Worker <-> orchestrator hand-off
# ----------------------------------------------------------------------
def write_result(path: str, result: dict) -> None:
    tmp = f"{path}.part"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)


def read_result(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)
