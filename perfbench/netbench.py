"""Graph workloads ``net-forward`` and ``net-mixed``: one worker process.

Closed loop, one caller, no think time.  A *step* is one forward of every
graph of the workload (net-forward: VGG-s then C3D-s; net-mixed: the
mixed graph), so step latency is unimodal even though the two networks
of net-forward differ in cost.

Run by ``run.py``; standalone use::

    PYTHONPATH=src python3 perfbench/netbench.py --workload net-mixed \\
        --seed 1 --seconds 5 --trace 0 --out .perfbench_tmp/r.json
"""

from __future__ import annotations

import argparse
import math
import time
from collections import defaultdict

import numpy as np

import common
from repro.core.engine import ConvolutionEngine
from repro.graph import (
    Graph,
    GraphExecutor,
    graph_scaled_c3d,
    graph_scaled_vgg,
    oracle_execute,
)
import repro.graph.executor as graph_executor
from repro.obs import Tracer

#: Distinct inputs per graph; each is oracle-checked once, and every
#: later output for it must be bitwise identical to the checked one.
INPUTS_PER_GRAPH = 4
#: Steps per tracing block; trace runs alternate untraced and traced
#: blocks so drift on the host hits both sides alike.
BLOCK_STEPS = 8
#: Throughput is the rate the timed phase sustained in all but a tenth of
#: its windows of about a second.  Step times on a shared host have two
#: modes (a neighbour busy or idle); the median window sits between them
#: and moves with the share of time in each, while the slow mode is the
#: steady one: over six runs of the same code on a 2-core shared VM, the
#: 10th-percentile window spread half as much as the median window.
THROUGHPUT_WINDOW_S = 1.0
THROUGHPUT_PCT = 10


def _w(rng, c_in: int, c_out: int, kernel: tuple[int, ...]) -> np.ndarray:
    scale = 1.0 / math.sqrt(c_in * math.prod(kernel))
    return (rng.normal(size=(c_in, c_out) + kernel) * scale).astype(np.float32)


def mixed_graph(batch: int = 4, seed: int = 0) -> Graph:
    """Many small nodes from every algorithm family: a 7x7 stem, two
    bottleneck blocks, a 5x5 and a 3x3 conv, and a gap + gemm head."""
    rng = np.random.default_rng(seed)
    g = Graph(name="mixed")
    t = g.add_input("x", (batch, 8, 40, 40))
    t = g.add("conv", "stem", t, weights=_w(rng, 8, 32, (7, 7)), padding=(3, 3))
    t = g.add("relu", "stem_relu", t)
    for b in (1, 2):
        skip = t
        t = g.add("conv", f"b{b}_reduce", skip, weights=_w(rng, 32, 8, (1, 1)), padding=(0, 0))
        t = g.add("relu", f"b{b}_relu1", t)
        t = g.add("conv", f"b{b}_conv", t, weights=_w(rng, 8, 8, (3, 3)), padding=(1, 1))
        t = g.add("relu", f"b{b}_relu2", t)
        t = g.add("conv", f"b{b}_expand", t, weights=_w(rng, 8, 32, (1, 1)), padding=(0, 0))
        t = g.add("add", f"b{b}_sum", (t, skip))
        t = g.add("relu", f"b{b}_out", t)
    t = g.add("conv", "conv5", t, weights=_w(rng, 32, 32, (5, 5)), padding=(2, 2))
    t = g.add("relu", "conv5_relu", t)
    t = g.add("conv", "conv3", t, weights=_w(rng, 32, 32, (3, 3)), padding=(1, 1))
    t = g.add("relu", "conv3_relu", t)
    t = g.add("gap", "gap", t)
    t = g.add(
        "gemm", "head", t,
        weights=(rng.normal(size=(32, 10)) * 0.2).astype(np.float32),
        bias=(rng.normal(size=10) * 0.1).astype(np.float32),
    )
    g.mark_output(t)
    return g


#: workload -> (graphs by tag, engine settings).  Model weights are fixed
#: (seed 0); the run seed only draws the inputs.
WORKLOADS = {
    "net-forward": (
        lambda: {"vgg": graph_scaled_vgg(batch=8), "c3d": graph_scaled_c3d(batch=4)},
        dict(backend="compiled", algorithm="winograd"),
    ),
    "net-mixed": (
        lambda: {"mixed": mixed_graph()},
        # Model-only ranking: probed decisions flip between processes
        # (the 7x7 stem went fft <-> nested), which makes throughput
        # bimodal across runs; predicted decisions are deterministic.
        dict(backend="compiled", algorithm="auto", portfolio_probe=False),
    ),
}


# ----------------------------------------------------------------------
# Spans around the public entry points (trace runs only)
# ----------------------------------------------------------------------
class Probes:
    """Wraps ``engine.run``, ``eval_node``, ``plan_graph`` and the
    portfolio's ``decide`` with benchmark spans on the engine's tracer,
    so one forward's spans nest under its ``bench.forward`` root."""

    def __init__(self, engine, node_of_weights: dict[int, str]):
        self.engine = engine
        self.node_of_weights = node_of_weights
        self._orig_eval = graph_executor.eval_node
        self._orig_plan = graph_executor.plan_graph

    def install(self) -> None:
        tracer, engine = self.engine.tracer, self.engine
        run, decide = engine.run, engine.portfolio.decide
        orig_eval, orig_plan = self._orig_eval, self._orig_plan
        node_of = self.node_of_weights

        def traced_run(images, kernels, **kw):
            with tracer.span("bench.engine.run", node=node_of.get(id(kernels), "?")):
                return run(images, kernels, **kw)

        def traced_eval(node, operands, out=None):
            with tracer.span("bench.eval_node", node=node.name):
                return orig_eval(node, operands, out=out)

        def traced_plan(*args, **kw):
            with tracer.span("bench.plan_graph"):
                return orig_plan(*args, **kw)

        def traced_decide(*args, **kw):
            with tracer.span("bench.portfolio.decide"):
                return decide(*args, **kw)

        engine.run = traced_run
        engine.portfolio.decide = traced_decide
        graph_executor.eval_node = traced_eval
        graph_executor.plan_graph = traced_plan
        tracer.enabled = True

    def remove(self) -> None:
        del self.engine.run
        del self.engine.portfolio.decide
        graph_executor.eval_node = self._orig_eval
        graph_executor.plan_graph = self._orig_plan
        self.engine.tracer.enabled = False


# ----------------------------------------------------------------------
class Checker:
    """First output per input vs the float64 oracle; later outputs must
    repeat it bit for bit (the engine paths are deterministic)."""

    def __init__(self):
        self.reference: dict[tuple[str, int], np.ndarray] = {}
        self.max_relerr = 0.0
        self.oracle_checks = 0
        self.bitwise_checks = 0

    def check(self, tag: str, idx: int, graph: Graph, x, outputs) -> bool:
        (out,) = outputs.values()
        key = (tag, idx)
        ref = self.reference.get(key)
        if ref is not None:
            self.bitwise_checks += 1
            return bool(np.array_equal(out, ref))
        (want,) = oracle_execute(graph, x).values()
        err = common.relerr(out, want)
        self.oracle_checks += 1
        self.max_relerr = max(self.max_relerr, err)
        if err > common.RELERR_BUDGET:
            return False
        self.reference[key] = out.copy()
        return True


def node_profiles(engine, executors, rng) -> dict[str, dict]:
    """Regret, cost-model ratio and intensity of every conv node."""
    rows = {}
    for tag, ex in executors.items():
        plan = ex.plan
        for node in plan.order:
            if node.op != "conv":
                continue
            x = rng.standard_normal(plan.shapes[node.inputs[0]]).astype(np.float32)
            rows[f"{tag}.{node.name}"] = common.profile_conv(
                engine, x, node.attrs["weights"], tuple(node.attrs["padding"]),
                plan.node_plans[node.name].algorithm, node.attr("fmr"),
            )
    return rows


def layer_metrics(executors, spans, traced_steps, stats, counters, steps) -> dict:
    """Per-layer numbers from the traced steps' spans and engine counters."""
    own = common.self_times(spans)
    roots = common.root_of(spans)
    by_id = {s.span_id: s for s in spans}
    fwd_roots = {s.span_id for s in spans if s.name == "bench.forward"}
    n_steps = max(1, traced_steps)
    m: dict[str, float] = defaultdict(float)
    node_call: dict[str, list[float]] = defaultdict(list)
    covered = total = 0.0
    for s in spans:
        root = roots.get(s.span_id)
        in_fwd = root in fwd_roots
        if s.name == "codelet.compile":
            m["compiled.build_s"] += s.duration
            m["compiled.builds"] += 1
        elif s.name == "bench.plan_graph":
            m["graph.plan_s"] += s.duration
        elif s.name == "bench.portfolio.decide":
            m["portfolio.decide_s"] += s.duration
        elif s.name == "portfolio.probe":
            m["portfolio.probes"] += 1
        if not in_fwd:
            continue
        if s.name.startswith("compiled.stage"):
            m[s.name + "_ms"] += 1e3 * own[s.span_id] / n_steps
        elif s.name == "request":
            m["engine.dispatch_ms"] += 1e3 * own[s.span_id] / n_steps
        elif s.name == "bench.engine.run":
            tag = by_id[roots[s.span_id]].attrs["graph"]
            node_call[f"{tag}.{s.attrs['node']}"].append(s.duration)
        elif s.name == "bench.eval_node" and s.parent_id in fwd_roots:
            m["graph.eltwise_ms"] += 1e3 * s.duration / n_steps
        if s.parent_id in fwd_roots:
            covered += s.duration
        elif s.name == "bench.forward":
            total += s.duration
    m["graph.closure"] = covered / total if total else 0.0
    m.update(common.engine_counters(stats))
    m["graph.interlayer_copies"] = counters.get("graph.interlayer_copies", 0) / steps
    m["graph.fused_epilogues"] = counters.get("graph.fused_epilogues", 0) / steps
    for tag, ex in executors.items():
        for node in ex.plan.order:
            if node.op != "conv":
                continue
            name = f"{tag}.{node.name}"
            call_s = common.median(node_call[name])
            shapes = ex.plan.shapes
            flops = common.direct_flops(shapes[node.inputs[0]], node.attrs["weights"].shape,
                                        shapes[node.name])
            m[f"node.{name}.call_ms"] = 1e3 * call_s
            m[f"node.{name}.gflops_direct"] = flops / call_s / 1e9 if call_s else 0.0
    return dict(m)


def windowed_throughput(step_s: list[float], images_per_step: int) -> float:
    """Images per second sustained over consecutive windows of about
    :data:`THROUGHPUT_WINDOW_S` of the timed phase: the
    :data:`THROUGHPUT_PCT`-th percentile of the window rates."""
    rates, images, busy = [], 0, 0.0
    for dt in step_s:
        images += images_per_step
        busy += dt
        if busy >= THROUGHPUT_WINDOW_S:
            rates.append(images / busy)
            images, busy = 0, 0.0
    return common.percentile(rates, THROUGHPUT_PCT) if rates else images / busy


# ----------------------------------------------------------------------
def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    make_graphs, engine_kw = WORKLOADS[args.workload]
    graphs = make_graphs()
    rng = np.random.default_rng(args.seed)
    inputs = {
        tag: [
            rng.standard_normal(next(iter(g.inputs.values()))).astype(np.float32)
            for _ in range(INPUTS_PER_GRAPH)
        ]
        for tag, g in graphs.items()
    }
    tracer = Tracer(enabled=False, max_spans=1 << 20)
    node_of_weights = {
        id(n.attrs["weights"]): n.name
        for g in graphs.values() for n in g.nodes if n.op == "conv"
    }

    # -- set-up: engine construction to the first (then checked) output --
    t0 = time.perf_counter()
    engine = ConvolutionEngine(tracer=tracer, **engine_kw)
    probes = Probes(engine, node_of_weights)
    if args.trace:
        probes.install()
    executors = {tag: GraphExecutor(g, engine) for tag, g in graphs.items()}
    first = {tag: ex.run(inputs[tag][0]) for tag, ex in executors.items()}
    setup_s = time.perf_counter() - t0
    if args.trace:
        probes.remove()

    checker = Checker()
    attempted = failed = 0
    errors: list[str] = []
    for tag, g in graphs.items():
        attempted += 1
        failed += not checker.check(tag, 0, g, inputs[tag][0], first[tag])
    result = {
        "setup_s": setup_s,
        "decisions": {tag: ex.plan.describe() for tag, ex in executors.items()},
    }
    if args.setup_only:
        result.update(attempted=attempted, failed=failed,
                      max_relerr=checker.max_relerr, peak_rss_mb=common.peak_rss_mb())
        common.write_result(args.out, result)
        return

    # Warm pass: every input once, oracle-checked.
    for tag, ex in executors.items():
        for i in range(1, INPUTS_PER_GRAPH):
            attempted += 1
            failed += not checker.check(tag, i, graphs[tag], inputs[tag][i],
                                        ex.run(inputs[tag][i]))

    # -- timed phase --------------------------------------------------
    images_per_step = sum(next(iter(g.inputs.values()))[0] for g in graphs.values())
    counters0 = engine.metrics.snapshot()["counters"]
    step_s = {False: [], True: []}
    traced_steps: list[int] = []
    per_graph = defaultdict(list)
    step = 0
    traced = False
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or (args.trace and not traced_steps):
        if args.trace and step % BLOCK_STEPS == 0:
            traced = not traced
            probes.install() if traced else probes.remove()
        idx = step % INPUTS_PER_GRAPH
        outs = {}
        s0 = time.perf_counter()
        for tag, ex in executors.items():
            g0 = time.perf_counter()
            try:
                with tracer.span("bench.forward", graph=tag, step=step):
                    outs[tag] = ex.run(inputs[tag][idx])
            except Exception as exc:  # noqa: BLE001 - counted as a failed forward
                errors.append(f"{tag}: {type(exc).__name__}: {exc}")
            per_graph[tag].append(time.perf_counter() - g0)
        dt = time.perf_counter() - s0
        if traced:
            traced_steps.append(step)
        step_s[traced].append(dt)
        for tag in executors:
            attempted += 1
            if tag not in outs or not checker.check(tag, idx, graphs[tag],
                                                    inputs[tag][idx], outs[tag]):
                failed += 1
        step += 1
    if traced:
        probes.remove()
    counters1 = engine.metrics.snapshot()["counters"]

    untraced = step_s[False]
    result.update(
        attempted=attempted,
        failed=failed,
        errors=errors[:5],
        max_relerr=checker.max_relerr,
        oracle_checks=checker.oracle_checks,
        bitwise_checks=checker.bitwise_checks,
        images_per_step=images_per_step,
        steps=len(untraced),
        step_ms=[1e3 * s for s in untraced],
        per_graph_p50_ms={t: 1e3 * common.median(v) for t, v in per_graph.items()},
        peak_rss_mb=common.peak_rss_mb(),
    )
    if not args.trace:
        result["throughput_img_s"] = windowed_throughput(untraced, images_per_step)
    else:
        counters = {
            k: counters1.get(k, 0) - counters0.get(k, 0) for k in counters1
        }
        stats = engine.stats()
        spans = tracer.spans()
        metrics = layer_metrics(executors, spans, len(traced_steps), stats, counters, step)
        # Headline of the traced run vs its untraced blocks.
        t_on = sum(step_s[True]) / len(step_s[True])
        t_off = sum(untraced) / len(untraced) if untraced else t_on
        metrics["trace.overhead_frac"] = t_on / t_off - 1.0
        for name, row in node_profiles(engine, executors, rng).items():
            for key in ("regret", "pred_over_meas", "ops_per_byte_computed"):
                metrics[f"node.{name}.{key}"] = row[key]
            result.setdefault("regret_detail", {})[name] = row
        result["layer_metrics"] = metrics
        result["spans_recorded"] = len(spans)
        result["spans_dropped"] = tracer.dropped
    common.write_result(args.out, result)


if __name__ == "__main__":
    main()
