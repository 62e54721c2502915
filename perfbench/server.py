"""Server process of the ``serve-open`` workload.

Runs one :class:`ConvServer` (compiled backend, ``max_batch=8``,
``window_ms=2``) on an ephemeral localhost port and prints ``PORT <n>``
once it accepts connections.  Commands arrive one per line on stdin:

``trace on`` / ``trace off``
    toggle the engine tracer and the benchmark's probes (trace runs);
``snapshot``
    print one JSON line: peak RSS so far and the protocol time totals;
``quit`` (or end of input)
    stop the server, write the result JSON to ``--out`` and exit.

The result holds the engine stats and, when tracing was on, the traced
engine spans reduced to per-layer numbers and the times each request's
frame was parsed and its reply frame dumped.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
import time
from collections import defaultdict

import common
import repro.serve.server as serve_server
from repro.core.engine import ConvolutionEngine
from repro.obs import Tracer
from repro.serve import ConvServer

MAX_BATCH = 8
WINDOW_MS = 2.0
#: Frames at least this large carry a tensor; smaller ones are control ops.
TENSOR_FRAME_BYTES = 64 << 10


class ServerProbe:
    """Times ``engine.run`` per model (keyed by input channels) and the
    server's protocol work on tensor frames, from outside the program.

    ``frames`` holds, per request id, the ``perf_counter`` readings at
    the start and end of the request frame's parse and of the reply
    frame's dump.  ``perf_counter`` is the system-wide monotonic clock,
    so the client can set them against its own readings.
    """

    PROTOCOL = ("decode_message", "decode_tensor", "encode_tensor", "encode_message")

    def __init__(self, engine):
        self.engine = engine
        self.calls: dict[int, list[tuple[int, float]]] = defaultdict(list)
        self.proto: dict[str, list] = {n: [0, 0.0] for n in self.PROTOCOL}
        self.frames: dict[str, list[float]] = defaultdict(lambda: [math.nan] * 4)
        self.orig = {n: getattr(serve_server, n) for n in self.PROTOCOL}

    def install(self) -> None:
        run, tracer, calls = self.engine.run, self.engine.tracer, self.calls

        def timed_run(images, kernels, **kw):
            t0 = time.perf_counter()
            with tracer.span("bench.engine.run"):
                out = run(images, kernels, **kw)
            calls[kernels.shape[0]].append((images.shape[0], time.perf_counter() - t0))
            return out

        frames = self.frames

        def timed(name):
            fn, acc = self.orig[name], self.proto[name]
            # Slots of ``frames`` this function's start and end fill.
            slot = {"decode_message": 0, "encode_message": 2}.get(name)

            def wrapper(arg):
                t0 = time.perf_counter()
                out = fn(arg)
                t1 = time.perf_counter()
                frame = out if name == "encode_message" else arg
                if not isinstance(frame, bytes) or len(frame) >= TENSOR_FRAME_BYTES:
                    acc[0] += 1
                    acc[1] += t1 - t0
                    if slot is not None:
                        msg = arg if name == "encode_message" else out
                        frames[str(msg.get("id"))][slot:slot + 2] = [t0, t1]
                return out

            return wrapper

        self.engine.run = timed_run
        for name in self.PROTOCOL:
            setattr(serve_server, name, timed(name))
        self.engine.tracer.enabled = True

    def remove(self) -> None:
        self.engine.__dict__.pop("run", None)
        for name, fn in self.orig.items():
            setattr(serve_server, name, fn)
        self.engine.tracer.enabled = False


def span_metrics(spans) -> dict:
    """Stage self times per engine dispatch, build and dispatch time."""
    own = common.self_times(spans)
    m: dict[str, float] = defaultdict(float)
    dispatches = sum(1 for s in spans if s.name == "bench.engine.run")
    for s in spans:
        if s.name == "codelet.compile":
            m["compiled.build_s"] += s.duration
            m["compiled.builds"] += 1
        elif s.name.startswith("compiled.stage") and dispatches:
            m[s.name + "_ms"] += 1e3 * own[s.span_id] / dispatches
        elif s.name == "request" and dispatches:
            m["engine.dispatch_ms"] += 1e3 * own[s.span_id] / dispatches
    return dict(m)


async def serve(args) -> dict:
    tracer = Tracer(enabled=bool(args.trace), max_spans=1 << 20)
    engine = ConvolutionEngine(backend="compiled", tracer=tracer)
    probe = ServerProbe(engine)
    if args.trace:
        probe.install()
    server = ConvServer(engine, max_batch=MAX_BATCH, window_ms=WINDOW_MS)
    await server.start()
    print(f"PORT {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if line == "trace on":
                probe.install()
            elif line == "trace off":
                probe.remove()
            elif line == "snapshot":
                snap = {"peak_rss_mb": common.peak_rss_mb(), "protocol": probe.proto}
                print(json.dumps(snap), flush=True)
            elif line in ("quit", ""):
                break
    finally:
        probe.remove()
        await server.stop()
    stats = engine.stats()
    engine.close()
    return {
        "plans": stats["plans"],
        "arena": stats["arena"],
        "fallbacks": stats["fallbacks"],
        "span_metrics": span_metrics(tracer.spans()),
        "spans_dropped": tracer.dropped,
        "run_calls": {str(c): v for c, v in probe.calls.items()},
        "frames": dict(probe.frames),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    common.write_result(args.out, asyncio.run(serve(args)))


if __name__ == "__main__":
    main()
