"""Client process of the ``serve-open`` workload.

Starts ``server.py`` as its own process, registers two conv models and
drives them open loop on a fixed schedule: requests are due at evenly
spaced times whatever the server does, each is timed from its due time,
and the generator's own lateness is recorded.  Models ``a`` (32->32 3x3
on 1x32x56x56) and ``b`` (64->64 3x3 on 1x64x28x28) are mixed 3:1 in
seeded order, so the batcher sees two keys.  A closed-loop phase keeps
a fixed number of requests in flight to measure capacity.  The 20 rps
rung and the closed-loop phase alternate in pieces, then the 40, 60 and
80 rps rungs run.  Every
reply digest must equal ``tensor_digest`` of a lone engine's output for
the same input, and every lone-engine output must be within the
float64 direct convolution's error budget.

Run by ``run.py``; standalone use::

    PYTHONPATH=src python3 perfbench/servebench.py --seed 1 --seconds 8 \\
        --trace 0 --tmp .perfbench_tmp/sb --out .perfbench_tmp/sb/r.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import common
import repro.serve.client as serve_client
from repro.core.engine import ConvolutionEngine
from repro.nets.reference import direct_convolution
from repro.obs import Tracer
from repro.serve import ProtocolError, ServeClient, tensor_digest
from server import MAX_BATCH

HERE = Path(__file__).resolve().parent

#: name -> (input shape, kernel shape); padding 1 keeps the size.
MODELS = {
    "a": ((1, 32, 56, 56), (32, 32, 3, 3)),
    "b": ((1, 64, 28, 28), (64, 64, 3, 3)),
}
PADDING = (1, 1)
#: Models in the ratio of three ``a`` for every ``b``; the ladder sends
#: them in a seeded shuffle of this.
MIX = ("a", "a", "a", "b")
INPUTS_PER_MODEL = 6
#: Offered rates (requests/s, one image each).  ``lo`` and ``hi`` are the
#: first two; the rest find the knee.
LADDER = (20, 40, 60, 80)
#: Requests the closed-loop saturation phase keeps in flight: two full
#: batches, so a full batch waits while one runs.  Replies per second in
#: that phase are the capacity of this client/server pair, with no
#: ceiling set by an offered rate.
SATURATION_DEPTH = 2 * MAX_BATCH
#: The phase counts as saturated when its median latency is at least
#: this many times the lo rung's: requests wait behind others.
SATURATION_QUEUEING = 2.0
#: The saturation phase's capacity is its reply rate from the moment the
#: pipeline has filled to the phase's end.  Replies leave in batches of
#: up to eight, and rates over one-second windows swing by a third
#: within a run (91 to 141 images/s): the median of a handful of windows
#: keeps that swing, the rate over the whole phase averages it out.  The
#: window rates are printed to show the swing.
SATURATION_FILL_S = 0.5
SATURATION_WINDOW_S = 1.0
#: Share of the run's seconds each rung (then the saturation phase) gets.
#: The lo rung and the saturation phase carry the headline metrics, so
#: they get the most; 60 and 80 rps only have to show where the knee is.
RUNG_SHARE = (0.40, 0.12, 0.06, 0.06, 0.36)
#: The lo rung and the saturation phase run in this many alternating
#: pieces, then the other rungs.  A slow spell on the host lasts ten
#: seconds or more at times; in one block it moved the lo median of a
#: whole run by a third, spread over the run it hits some pieces only.
HEADLINE_PIECES = 3
#: Latency limit on the tail percentile for the SLO rate.
SLO_MS = 120.0
DRAIN_TIMEOUT_S = 60.0


def make_models(seed: int):
    """Fixed weights (seed 0) and seeded inputs."""
    wrng = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    kernels, inputs = {}, {}
    for name, (x_shape, w_shape) in MODELS.items():
        kernels[name] = (wrng.standard_normal(w_shape)
                         / math.sqrt(w_shape[0] * 9)).astype(np.float32)
        inputs[name] = [rng.standard_normal(x_shape).astype(np.float32)
                        for _ in range(INPUTS_PER_MODEL)]
    return kernels, inputs, rng


class Server:
    """The server process: started, then told what to do on stdin."""

    def __init__(self, tmp: Path, trace: bool, cache: str):
        self.out = tmp / f"{Path(cache).name}-server.json"
        env = dict(os.environ, REPRO_CODELET_CACHE=f"{cache}-server")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace", str(int(trace)),
             "--out", str(self.out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def command(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def snapshot(self) -> dict:
        """Peak RSS so far and protocol time totals, from the server."""
        self.command("snapshot")
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> dict:
        try:
            self.command("quit")
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return common.read_result(str(self.out))


# ----------------------------------------------------------------------
# Client-side protocol spans (trace runs only)
# ----------------------------------------------------------------------
class ProtocolProbe:
    """Times the client's encode and decode of each request, by request id.

    ``ServeClient.submit`` encodes the images and then the frame, which
    carries the id, before it first yields; ``decode_message`` returns
    the reply with its id before the output tensor is decoded.
    """

    NAMES = ("encode_tensor", "encode_message", "decode_message", "decode_tensor")

    def __init__(self):
        self.orig = {n: getattr(serve_client, n) for n in self.NAMES}
        self.encode: dict[int, float] = defaultdict(float)
        self.decode: dict[int, float] = defaultdict(float)
        self.frame_bytes: dict[int, int] = defaultdict(int)
        #: perf_counter when the reply frame's parse began, by request id.
        self.decode_start: dict[int, float] = {}
        self.last_id = None
        self._unassigned = 0.0
        self._owner: dict[int, int] = {}

    def install(self) -> None:
        o, probe = self.orig, self

        def encode_tensor(arr):
            t0 = time.perf_counter()
            env = o["encode_tensor"](arr)
            probe._unassigned += time.perf_counter() - t0
            return env

        def encode_message(msg):
            t0 = time.perf_counter()
            data = o["encode_message"](msg)
            rid = probe.last_id = msg.get("id")
            probe.encode[rid] += probe._unassigned + time.perf_counter() - t0
            probe._unassigned = 0.0
            probe.frame_bytes[rid] += len(data)
            return data

        def decode_message(line):
            t0 = time.perf_counter()
            msg = o["decode_message"](line)
            rid = msg.get("id")
            probe.decode_start.setdefault(rid, t0)
            probe.decode[rid] += time.perf_counter() - t0
            probe.frame_bytes[rid] += len(line)
            if isinstance(msg.get("output"), dict):
                probe._owner[id(msg["output"])] = rid
            return msg

        def decode_tensor(obj):
            rid = probe._owner.pop(id(obj), None)
            t0 = time.perf_counter()
            arr = o["decode_tensor"](obj)
            probe.decode[rid] += time.perf_counter() - t0
            return arr

        for name, fn in zip(self.NAMES, (encode_tensor, encode_message,
                                         decode_message, decode_tensor)):
            setattr(serve_client, name, fn)

    def remove(self) -> None:
        for name, fn in self.orig.items():
            setattr(serve_client, name, fn)


# ----------------------------------------------------------------------
async def finish(rec, fut, expected) -> None:
    """Wait for one reply and check its digest."""
    try:
        reply = await fut
    except ProtocolError as exc:
        rec["error"] = exc.code
    else:
        rec["batched"], rec["padded_to"] = reply["batched"], reply["padded_to"]
        if reply["digest"] != expected[rec["model"]][rec["input"]]:
            rec["error"] = "wrong_output"
    rec["done"] = time.perf_counter()


async def drain(tasks) -> None:
    if tasks:
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for t in pending:
            t.cancel()
        for t in done:
            t.result()


async def run_rung(client, rate, seconds, order, inputs, expected, probe) -> dict:
    """One rung of the ladder, or a piece of one: ``rate`` requests/s for
    ``seconds``; its records, summarized by :func:`summarize_rung`."""
    n = max(1, round(rate * seconds))
    loop = asyncio.get_running_loop()
    records = []
    tasks = []
    start = time.perf_counter() + 0.05
    for i in range(n):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        model = order[i % len(order)]
        idx = (i // len(order)) % INPUTS_PER_MODEL
        sent = time.perf_counter()
        rec = {"model": model, "input": idx, "due": due, "sent": sent, "late": sent - due}
        records.append(rec)
        try:
            fut = await client.submit(model, inputs[model][idx])
            rec["submitted"] = time.perf_counter()
        except (ProtocolError, OSError) as exc:
            rec["error"] = type(exc).__name__
            rec["done"] = time.perf_counter()
            continue
        if probe is not None:
            rec["id"] = probe.last_id
        tasks.append(loop.create_task(finish(rec, fut, expected)))
    await drain(tasks)
    return {"records": records}


async def run_saturation(client, seconds, inputs, expected, probe) -> dict:
    """Closed loop: :data:`SATURATION_DEPTH` requests always in flight,
    each reply replaced by the next request, for ``seconds``; its records
    and counted replies, summarized by :func:`summarize_saturation`.

    Models follow the fixed :data:`MIX` order, not the seeded one: in a
    closed loop the order decides how requests group into batches, and
    seeded orders moved capacity by up to a quarter from seed to seed.
    """
    order = MIX
    slots = asyncio.Semaphore(SATURATION_DEPTH)
    loop = asyncio.get_running_loop()
    records, tasks = [], []

    async def one(rec, fut):
        try:
            await finish(rec, fut, expected)
        finally:
            slots.release()

    start = time.perf_counter()
    end = start + seconds
    i = 0
    while True:
        await slots.acquire()
        now = time.perf_counter()
        if now >= end:
            break
        model = order[i % len(order)]
        rec = {"model": model, "input": (i // len(order)) % INPUTS_PER_MODEL, "sent": now}
        records.append(rec)
        i += 1
        try:
            fut = await client.submit(model, inputs[model][rec["input"]])
        except (ProtocolError, OSError) as exc:
            rec["error"] = type(exc).__name__
            rec["done"] = time.perf_counter()
            slots.release()
            continue
        if probe is not None:
            rec["id"] = probe.last_id
        tasks.append(loop.create_task(one(rec, fut)))
    await drain(tasks)
    ok_done = [r["done"] for r in records if "error" not in r and "done" in r]
    counted = start + min(SATURATION_FILL_S, seconds / 2)
    n_win = max(1, int((end - counted) // SATURATION_WINDOW_S))
    width = (end - counted) / n_win
    rates = [sum(1 for t in ok_done if counted + k * width <= t < counted + (k + 1) * width)
             / width for k in range(n_win)]
    return {
        "records": records,
        "counted_s": end - counted,
        "counted_replies": sum(1 for t in ok_done if counted <= t < end),
        "window_img_s": rates,
    }


def summarize_saturation(pieces: list[dict], lo_p50_ms: float) -> dict:
    """The closed-loop phase from its pieces: capacity over their counted
    spans, latency from send to reply."""
    records = [r for p in pieces for r in p["records"]]
    lat = [1e3 * (r["done"] - r["sent"]) for r in records if "error" not in r and "done" in r]
    p50 = common.median(lat)
    return {
        "depth": SATURATION_DEPTH,
        "attempted": len(records),
        "failed": sum(1 for r in records if "error" in r or "done" not in r),
        "capacity_img_s": (sum(p["counted_replies"] for p in pieces)
                           / sum(p["counted_s"] for p in pieces)),
        "window_img_s": [w for p in pieces for w in p["window_img_s"]],
        "p50_ms": p50,
        "saturated": p50 >= SATURATION_QUEUEING * lo_p50_ms,
    }


def _total(values: list):
    """Key-by-key sum of numbers, ``[count, seconds]`` pairs or dicts of
    them; a key missing from a piece counts as zero."""
    last = values[-1]
    if isinstance(last, dict):
        return {k: _total([v[k] for v in values if k in v]) for k in last}
    if isinstance(last, list):
        return [sum(col) for col in zip(*values)]
    return sum(values)


def join_pieces(pieces: list[dict]) -> dict:
    """One phase from the pieces it ran in: records joined, the server's
    figures summed; peak RSS is a running peak, so the last piece's."""
    joined = {
        "records": [r for p in pieces for r in p["records"]],
        "server_rss_mb": pieces[-1]["server_rss_mb"],
        "server_protocol": _total([p["server_protocol"] for p in pieces]),
    }
    if "server_delta" in pieces[-1]:
        joined["server_delta"] = _total([p["server_delta"] for p in pieces])
    return joined


def summarize_rung(rate, records) -> dict:
    lat = [1e3 * (r["done"] - r["due"]) for r in records if "done" in r and "error" not in r]
    failed = sum(1 for r in records if "error" in r or "done" not in r)
    ok = [r for r in records if "done" in r and "error" not in r]
    third = max(1, len(ok) // 3)
    by_due = sorted(ok, key=lambda r: r["due"])
    early = common.median(1e3 * (r["done"] - r["due"]) for r in by_due[:third])
    late = common.median(1e3 * (r["done"] - r["due"]) for r in by_due[-third:])
    out = {
        "rate": rate,
        "attempted": len(records),
        "failed": failed,
        "p50_ms": common.median(lat),
        "p90_ms": common.percentile(lat, 90),
        "lateness_p50_ms": common.median(1e3 * r["late"] for r in records),
        "lateness_max_ms": max(1e3 * r["late"] for r in records),
        "early_p50_ms": early,
        "late_p50_ms": late,
        "records": records,
    }
    if len(lat) > common.TAIL_BEYOND:
        out["tail_ms"], out["tail_pct"], out["tail_n"] = common.tail(lat)
    else:
        out["tail_ms"], out["tail_pct"], out["tail_n"] = math.inf, 0.0, len(lat)
    # A growing backlog shows as latency climbing through the rung.
    out["backlog"] = late > max(1.5 * early, early + SLO_MS / 2)
    out["meets_slo"] = failed == 0 and out["tail_ms"] <= SLO_MS and not out["backlog"]
    return out


def slo_rate(rungs) -> float:
    """Highest ladder rate whose tail stays within :data:`SLO_MS` with no
    growing backlog and no failed request (0 when none does)."""
    best = 0.0
    for rung in rungs:
        if not rung["meets_slo"]:
            break
        best = rung["rate"]
    return best


async def main_async(args) -> dict:
    tmp = Path(args.tmp)
    kernels, inputs, rng = make_models(args.seed)
    n_inputs = 1 if args.setup_only else INPUTS_PER_MODEL
    # Oracle: a lone engine (same backend, its own codelet cache) gives
    # the expected digest of every input.  Its outputs are checked against
    # the float64 direct convolution first: one outside the budget counts
    # as a failed operation and leaves no digest, so every reply for that
    # input fails too.
    cache = os.environ["REPRO_CODELET_CACHE"]
    os.environ["REPRO_CODELET_CACHE"] = f"{cache}-client"
    lone = ConvolutionEngine(backend="compiled", tracer=Tracer(enabled=False))
    expected = {m: [] for m in MODELS}
    max_relerr = 0.0
    oracle_failed = 0
    for m in MODELS:
        for x in inputs[m][:n_inputs]:
            out = lone.run(x, kernels[m], padding=PADDING)
            want = direct_convolution(x.astype(np.float64), kernels[m].astype(np.float64),
                                      padding=PADDING)
            err = common.relerr(out, want)
            max_relerr = max(max_relerr, err)
            good = err <= common.RELERR_BUDGET
            oracle_failed += not good
            expected[m].append(tensor_digest(out) if good else None)

    # -- set-up: server start through register to the first correct reply
    t0 = time.perf_counter()
    server = Server(tmp, args.trace, cache)
    client = ServeClient("127.0.0.1", server.port)
    rungs, sat, untraced_lo, probe = [], None, None, None
    try:
        await client.connect()
        for m in MODELS:
            await client.register(m, kernels[m], PADDING)
        first = await asyncio.gather(*(client.infer(m, inputs[m][0]) for m in MODELS))
        setup_s = time.perf_counter() - t0
        attempted = len(first) + n_inputs * len(MODELS)
        failed = oracle_failed + sum(r["digest"] != expected[m][0]
                                     for r, m in zip(first, MODELS))
        result = {"setup_s": setup_s, "max_relerr": max_relerr,
                  "oracle_checks": n_inputs * len(MODELS)}
        if not args.setup_only:
            # Warm the other batch buckets (2, 4, 8) of both models with one
            # multi-image request each, so every run builds the same plans.
            # Samples are independent, so each image's slice of the output
            # must match the lone engine's single-image digest.
            for m in MODELS:
                for k in (2, 4, 8):
                    idx = [j % INPUTS_PER_MODEL for j in range(k)]
                    out = (await client.infer(m, np.concatenate(
                        [inputs[m][j] for j in idx])))["output"]
                    attempted += 1
                    failed += any(tensor_digest(out[i:i + 1]) != expected[m][j]
                                  for i, j in enumerate(idx))
            order = list(MIX) * 4
            rng.shuffle(order)
            shares = [share * args.seconds for share in RUNG_SHARE]
            if args.trace:
                # Tracing cost: the lo rung untraced, then the ladder traced.
                server.command("trace off")
                untraced_lo = summarize_rung(LADDER[0], (await run_rung(
                    client, LADDER[0], shares[0] / 2, order, inputs, expected, None))["records"])
                server.command("trace on")
                probe = ProtocolProbe()
                probe.install()
            snap = server.snapshot()

            async def measured(piece):
                """Run one piece of a phase; attach the server's figures for it."""
                nonlocal snap
                before = (await client.stats())["metrics"] if args.trace else None
                out = await piece
                if args.trace:
                    out["server_delta"] = metric_delta(
                        before, (await client.stats())["metrics"])
                prev, snap = snap, server.snapshot()
                out["server_rss_mb"] = snap["peak_rss_mb"]
                out["server_protocol"] = {
                    k: [n - prev["protocol"][k][0], t - prev["protocol"][k][1]]
                    for k, (n, t) in snap["protocol"].items()}
                return out

            lo_pieces, sat_pieces = [], []
            for _ in range(HEADLINE_PIECES):
                lo_pieces.append(await measured(run_rung(
                    client, LADDER[0], shares[0] / HEADLINE_PIECES, order, inputs,
                    expected, probe)))
                sat_pieces.append(await measured(run_saturation(
                    client, shares[-1] / HEADLINE_PIECES, inputs, expected, probe)))
            phases = [(LADDER[0], lo_pieces)]
            for rate, secs in zip(LADDER[1:], shares[1:-1]):
                phases.append((rate, [await measured(run_rung(
                    client, rate, secs, order, inputs, expected, probe))]))
            for rate, pieces in phases:
                joined = join_pieces(pieces)
                rungs.append(joined | summarize_rung(rate, joined["records"]))
            sat = join_pieces(sat_pieces) | summarize_saturation(
                sat_pieces, rungs[0]["p50_ms"])
    finally:
        if probe is not None:
            probe.remove()
        await client.close()
        srv = server.stop()

    for rung in rungs + [r for r in (sat, untraced_lo) if r]:
        attempted += rung["attempted"]
        failed += rung["failed"]
    result.update(attempted=attempted, failed=failed)
    if args.setup_only:
        return result
    if not sat["saturated"]:
        # No queue formed: the capacity figure would measure the client.
        result["failed"] += 1
        result.setdefault("errors", []).append(
            f"saturation phase did not saturate: p50 {sat['p50_ms']:.1f} ms < "
            f"{SATURATION_QUEUEING} x lo p50 {rungs[0]['p50_ms']:.1f} ms")
    result["server"] = {k: v for k, v in srv.items() if k != "run_calls"}
    # Rungs past the knee queue requests without bound, so their memory
    # measures the backlog: peak RSS counts up to the last rung that
    # meets the latency limit (the lo rung when none does).  The
    # closed-loop pieces, at a fixed depth, run before every rung but the
    # lo rung's last piece.
    result["peak_rss_mb"] = max(
        [r["server_rss_mb"] for r in rungs if r["meets_slo"]] or [rungs[0]["server_rss_mb"]])
    result["rungs"] = [{k: v for k, v in r.items() if k != "records"} for r in rungs]
    result["slo_rate_rps"] = slo_rate(rungs)
    result["saturation"] = {k: v for k, v in sat.items() if k != "records"}
    result["saturation_img_s"] = sat["capacity_img_s"]
    sizes = Counter(rec["batched"] for r in rungs + [sat] for rec in r["records"]
                    if "batched" in rec)
    # Each reply names its batch's size; a batch of k sent k replies.
    result["batch_size_hist"] = {k: round(v / k) for k, v in sorted(sizes.items())}
    if args.trace and result["failed"]:
        # Wrong or failed replies leave rungs without the timings the
        # per-layer numbers need; the run is reported wrong instead.
        result["layer_metrics"] = {}
    elif args.trace:
        result["layer_metrics"], result["closure_steps_ms"] = serve_layer_metrics(
            rungs + [sat], untraced_lo, probe, srv, lone, kernels, inputs)
    return result


def metric_delta(before: dict, after: dict) -> dict:
    """Counter and histogram (count, total) deltas between two snapshots."""
    delta = {}
    for name, v in after["counters"].items():
        delta[name] = v - before["counters"].get(name, 0)
    for name, h in after["histograms"].items():
        b = before["histograms"].get(name, {"count": 0, "total": 0.0})
        delta[name] = {"count": h["count"] - b["count"], "total": h["total"] - b["total"]}
    return delta


def _mean_of(delta: dict, name: str) -> float:
    h = delta.get(name) or {"count": 0, "total": 0.0}
    return h["total"] / h["count"] if h["count"] else 0.0


def serve_layer_metrics(rungs, untraced_lo, probe, srv, lone, kernels, inputs):
    """Per-layer numbers of the traced ladder, and the closure's steps.
    Protocol, server and closure figures are taken on the lo rung, where
    queueing is least."""
    m: dict[str, float] = {}
    recs = [rec for r in rungs for rec in r["records"] if "batched" in rec]
    lo = rungs[0]
    lo_recs = [rec for rec in lo["records"] if "batched" in rec]
    n_lo = max(1, len(lo_recs))
    enc = 1e3 * sum(probe.encode[r["id"]] for r in lo_recs) / n_lo
    submit = 1e3 * sum(r["submitted"] - r["sent"] for r in lo_recs) / n_lo
    dec = 1e3 * sum(probe.decode[r["id"]] for r in lo_recs) / n_lo
    rtt = 1e3 * sum(r["done"] - r["sent"] for r in lo_recs) / n_lo
    sp = {k: 1e3 * t / n_lo for k, (_, t) in lo["server_protocol"].items()}
    engine_ms = 1e3 * _mean_of(lo["server_delta"], "engine.request_seconds")
    server_ms = 1e3 * _mean_of(lo["server_delta"], 'serve.request_seconds{tenant="default"}')
    m["protocol.encode_ms"] = enc
    m["protocol.decode_ms"] = dec
    m["protocol.server_decode_ms"] = sp["decode_message"] + sp["decode_tensor"]
    m["protocol.server_encode_ms"] = sp["encode_tensor"] + sp["encode_message"]
    m["protocol.frame_bytes"] = sum(probe.frame_bytes[r["id"]] for r in recs) / max(1, len(recs))
    m["serve.engine_ms"] = engine_ms
    # Queue + batching window + socket + event loops: what is left of the
    # round trip after protocol work on both sides and engine time.
    m["serve.residual_ms"] = (rtt - enc - dec - m["protocol.server_decode_ms"]
                              - m["protocol.server_encode_ms"] - engine_ms)
    # The steps are timed independently, one after the other; the two
    # transits are between readings of the client and the server, which
    # share the monotonic clock.  What is left over is event-loop
    # wake-ups in either process.
    frames = srv["frames"]
    steps = {
        "client_submit": submit,
        "upstream": 1e3 * sum(frames[str(r["id"])][0] - r["submitted"]
                              for r in lo_recs) / n_lo,
        "server_parse": sp["decode_message"],
        "server_request": server_ms,
        "server_dump": sp["encode_message"],
        "downstream": 1e3 * sum(probe.decode_start[r["id"]] - frames[str(r["id"])][3]
                                for r in lo_recs) / n_lo,
        "client_decode": dec,
    }
    m["serve.closure"] = sum(steps.values()) / rtt
    # One dispatch per batch: weight each reply by 1 / its batch size.
    dispatches = sum(1.0 / r["batched"] for r in recs)
    executed = sum(r["padded_to"] / r["batched"] for r in recs)
    m["batcher.batch_size_p50"] = common.median(
        k for k, v in Counter(r["batched"] for r in recs).items() for _ in range(round(v / k)))
    m["batcher.batch_size_mean"] = len(recs) / dispatches if dispatches else 0.0
    m["batcher.padded_frac"] = 1.0 - len(recs) / executed if executed else 0.0
    m["tenants.rejects"] = sum(
        v for r in rungs for k, v in r["server_delta"].items()
        if k.startswith("serve.rejects") and isinstance(v, int))
    m.update(srv["span_metrics"])
    m.update(common.engine_counters(srv))
    for name, (x_shape, w_shape) in MODELS.items():
        calls = srv["run_calls"].get(str(w_shape[0]), [])
        out_shape = (1, w_shape[1]) + x_shape[2:]
        m[f"node.serve.{name}.call_ms"] = 1e3 * common.median(s for _, s in calls)
        m[f"node.serve.{name}.gflops_direct"] = common.median(
            common.direct_flops((b,) + x_shape[1:], w_shape, out_shape) / s / 1e9
            for b, s in calls)
        row = common.profile_conv(lone, inputs[name][0], kernels[name], PADDING, "winograd")
        for key in ("regret", "pred_over_meas", "ops_per_byte_computed"):
            m[f"node.serve.{name}.{key}"] = row[key]
    m["trace.overhead_frac"] = lo["p50_ms"] / untraced_lo["p50_ms"] - 1.0
    return m, steps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    common.write_result(args.out, asyncio.run(main_async(args)))


if __name__ == "__main__":
    main()
