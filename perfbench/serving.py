"""The serving workloads: one deployment host process, one load generator.

The generator (this process) starts the deployment host
(``deploy.py``), preloads it through the public ingest path, warms it,
then drives three load phases over at most two pipelined
:class:`~repro.serving.ServingClient` connections:

* **open loop** — requests go out on a fixed schedule at the fixed rates
  of ``settings.json``; each is timed from when it was due, so a stall
  also delays every request scheduled behind it;
* **sequential** — one request at a time, the generator moved onto the
  deployment host's core, so each request costs the program's work plus
  two context switches rather than two cross-core wake-ups of idle
  virtual CPUs, whose cost follows the hypervisor, not the program;
* **closed loop** — a fixed in-flight depth measures capacity.

The open-loop and sequential phases run in segments of about a second.
Before the first segment and after each, and after each set-up, both
processes time the host-speed kernel of ``calibrate.py``; every time of
the run is scaled to the reference speed by the median of those kernel
times.

Outputs are checked after the timed phases, against a reference store
the generator builds from the same events.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.serving import Event, Overloaded, ServingClient, ServingError

import calibrate
import inputs
import layers
import spans as tracing
from stats import latency_summary, peak_rss_mb, percentile

HERE = Path(__file__).resolve().parent
Query = Tuple[str, Tuple[str, ...]]


# ----------------------------------------------------------------------
# The deployment host process
# ----------------------------------------------------------------------
class Host:
    """Handle on one running ``deploy.py`` process."""

    def __init__(self, process, address, pid) -> None:
        self.process = process
        self.address = address
        self.pid = pid

    @classmethod
    async def start(cls, topology: str, root: Path, cpus) -> "Host":
        """Spawn the host process, pinned to ``cpus``, and wait for its address."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")])
        )
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            str(HERE / "deploy.py"),
            "--topology",
            topology,
            "--root",
            str(root),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        os.sched_setaffinity(process.pid, cpus)
        line = await process.stdout.readline()
        if not line:
            await process.wait()
            raise RuntimeError(f"deployment host exited with code {process.returncode}")
        hello = json.loads(line)
        return cls(process, tuple(hello["address"]), hello["pid"])

    async def command(self, **command: Any) -> Dict[str, Any]:
        self.process.stdin.write((json.dumps(command) + "\n").encode())
        await self.process.stdin.drain()
        return json.loads(await self.process.stdout.readline())

    async def stop(self) -> None:
        if self.process.returncode is None:
            try:
                await asyncio.wait_for(self.command(cmd="stop"), 30)
                await asyncio.wait_for(self.process.wait(), 30)
            except (asyncio.TimeoutError, ConnectionError, ValueError):
                self.process.kill()
                await self.process.wait()


async def calibrate_both(host: Host, repeats: int) -> Tuple[float, float]:
    """The kernel's ms in the deployment host, then in this process:
    ``(host, generator)``.  One after the other, so neither measurement
    competes with the other for a shared physical core."""
    remote = (await host.command(cmd="calibrate", repeats=repeats))["ms"]
    return remote, calibrate.kernel_ms(repeats)


def kernel_ms(calibration: Tuple[float, float]) -> float:
    """One speed figure for both processes: the mean of their kernel times."""
    return statistics.fmean(calibration)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
class Tally:
    """Counts, latencies and completions of one phase."""

    def __init__(self) -> None:
        self.counts = {key: 0 for key in ("sent", "ok", "failed", "shed", "degraded", "timeout")}
        #: category -> ``(due, latency ms)``; ``inf`` marks a failure.
        self.latency: Dict[str, List[Tuple[float, float]]] = {"query": [], "similarity": [], "ingest": []}
        #: ``(done, work)`` per success: 1 per query, events per batch.
        self.completions: List[Tuple[float, int]] = []

    def record(self, category: str, status: str, due: float, done: float, work: int) -> None:
        self.counts[status] += 1
        ok = status == "ok"
        sample = (due, (done - due) * 1000.0 if ok else math.inf)
        self.latency["ingest" if category == "ingest" else "query"].append(sample)
        if category == "similarity":
            self.latency["similarity"].append(sample)
        if ok:
            self.completions.append((done, work))

    @property
    def bad(self) -> int:
        return sum(self.counts[key] for key in ("failed", "shed", "degraded", "timeout"))


class Generator:
    """Sends requests, checks replies as they land, and keeps the tallies."""

    def __init__(self, clients: List[ServingClient], timeout: float) -> None:
        self.clients = clients
        self.timeout = timeout
        #: Events acknowledged so far, preload included.
        self.acked_events = 0
        self.answers: List[Tuple[str, Tuple[str, ...], Any]] = []
        self.sent_batches: List[List[Dict[str, Any]]] = []
        self.problems: List[str] = []

    async def _call(self, client: ServingClient, op: str, fields: Dict[str, Any]):
        try:
            return "ok", await asyncio.wait_for(client.request(op, **fields), self.timeout)
        except Overloaded:
            return "shed", None
        except asyncio.TimeoutError:
            return "timeout", None
        except ServingError as exc:
            return "failed", exc

    async def query(self, tally: Tally, conn: int, query: Query, due: float, keep: bool) -> None:
        kind, groups = query
        floor = self.acked_events
        tally.counts["sent"] += 1
        status, response = await self._call(
            self.clients[conn], "query", {"kind": kind, "groups": list(groups)}
        )
        done = time.perf_counter()
        tally.record("similarity" if kind == "similarity" else "query", status, due, done, 1)
        if status != "ok":
            self.problems.append(f"query {kind}{list(groups)}: {status} {response}")
            return
        if response["watermark"] < floor:
            self.problems.append(
                f"query watermark {response['watermark']} below the {floor} events acked before it was sent"
            )
        if keep:
            self.answers.append((kind, groups, response["result"]))

    async def ingest(self, tally: Tally, batch: List[Dict[str, Any]], due: float) -> None:
        # Batches go out on connection 0 only, in send order, so the
        # reference can replay them in the order the shards applied them.
        tally.counts["sent"] += 1
        self.sent_batches.append(batch)
        status, response = await self._call(
            self.clients[0], "ingest", {"events": batch, "snapshot": False}
        )
        done = time.perf_counter()
        if status == "ok" and response.get("durable") is not True:
            status = "degraded"
        tally.record("ingest", status, due, done, len(batch))
        if status != "ok":
            self.problems.append(f"ingest: {status} {response}")
            return
        self.acked_events += len(batch)


async def open_loop(streams, seconds: float) -> Tuple[float, List[float]]:
    """Fire each stream's requests on its fixed schedule.

    Returns the schedule's start time and how late each request went
    out (ms).

    ``streams`` holds ``(rate, fire)`` pairs; ``fire(i, due)`` returns the
    coroutine of the stream's ``i``-th request.
    """
    schedule = sorted(
        (i / rate, position, i)
        for position, (rate, _) in enumerate(streams)
        for i in range(int(rate * seconds))
    )
    start = time.perf_counter() + 0.01
    lags = []
    tasks = []
    for offset, position, i in schedule:
        due = start + offset
        # Busy-yield until the due time: the loop's timers wake up to a
        # millisecond late, and an idle core adds its own wake-up delay
        # to every reply that lands while it sleeps.
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        lags.append((time.perf_counter() - due) * 1000.0)
        tasks.append(asyncio.create_task(streams[position][1](i, due)))
    await asyncio.gather(*tasks)
    return start, lags


async def closed_loop(depth: int, seconds: float, fire) -> float:
    """Keep ``depth`` requests in flight for ``seconds``; returns the start.

    ``fire(worker, due)`` returns the coroutine of the next request, or
    ``None`` when the inputs ran out.
    """
    start = time.perf_counter()
    end = start + seconds

    async def worker(index: int) -> None:
        while time.perf_counter() < end:
            request = fire(index, time.perf_counter())
            if request is None:
                return
            await request

    await asyncio.gather(*(worker(index) for index in range(depth)))
    return start


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
class ServingRun:
    def __init__(self, workload: str, seed: int, seconds: float, settings: Dict[str, Any], scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.settings = settings
        self.scratch = scratch
        self.routed = workload != "direct_read"
        self.writes = workload == "routed_write"
        self.rates = settings["rates"][workload]
        serving = settings["serving"]
        self.preload = inputs.preload_feed(seed, serving["preload_events"], serving["preload_keys"])
        self.sequence = inputs.query_sequence(seed, serving["query_sequence_length"])
        self.batches: List[List[Dict[str, Any]]] = []
        if self.writes:
            self.batches = inputs.ingest_batches(
                seed, self.preload, serving["ingest_batches"], serving["ingest_batch_events"]
            )
        self.next_query = 0
        self.next_batch = 0

    def _take_query(self) -> Query:
        query = self.sequence[self.next_query % len(self.sequence)]
        self.next_query += 1
        return query

    def _take_batch(self) -> Optional[List[Dict[str, Any]]]:
        if self.next_batch >= len(self.batches):
            return None
        batch = self.batches[self.next_batch]
        self.next_batch += 1
        return batch

    async def _setup(self, root: Path) -> Tuple[Host, Generator]:
        serving = self.settings["serving"]
        host = await Host.start("routed" if self.routed else "direct", root, self.host_cpus)
        try:
            clients = [await ServingClient.connect(*host.address) for _ in range(2)]
            generator = Generator(clients, serving["request_timeout_s"])
            step = serving["preload_batch_events"]
            tally = Tally()
            for lo in range(0, len(self.preload), step):
                batch = [event.to_dict() for event in self.preload[lo:lo + step]]
                if self.routed:
                    await generator.ingest(tally, batch, time.perf_counter())
                else:
                    # A lone server runs asynchronous acks: no durable field.
                    await clients[0].request("ingest", events=batch, snapshot=False)
            if tally.bad:
                raise RuntimeError(f"preload failed: {generator.problems[:3]}")
            generator.sent_batches.clear()
            generator.acked_events = len(self.preload)
            # Warm-up: every group's sketch views, then the first queries
            # of the sequence, which fill the router's view cache.
            everything = tuple(inputs.GROUPS)
            for kind in ("sum", "distinct"):
                await clients[0].query(kind, groups=everything)
            for index in range(serving["warmup_queries"]):
                kind, groups = self._take_query()
                await clients[index % 2].query(kind, groups=list(groups))
            return host, generator
        except BaseException:
            await host.stop()
            raise

    async def _segmented(self, host: Host, seconds: float, run_segment) -> List[Tuple[float, float]]:
        """Run ``run_segment(seconds)`` in segments of about ``segment_s``,
        timing the host-speed kernel before the first and after each;
        returns those calibrations."""
        repeats = self.settings["calibration"]["repeats"]
        segments = max(1, round(seconds / self.settings["serving"]["segment_s"]))
        calibrations = [await calibrate_both(host, repeats)]
        for _ in range(segments):
            await run_segment(seconds / segments)
            calibrations.append(await calibrate_both(host, repeats))
        return calibrations

    async def _phases(self, host: Host, generator: Generator, seconds: float) -> Dict[str, Any]:
        """The open-loop, sequential and closed-loop phases, ``seconds`` in all."""
        serving = self.settings["serving"]
        open_s = seconds * serving["open_share"]
        sequential_s = seconds * serving["sequential_share"]
        closed_s = seconds - open_s - sequential_s
        keep = not self.writes
        opened = Tally()
        streams = []
        query_rate = self.rates["queries_per_s"]
        if self.writes:
            batch_rate = self.rates["ingest_batches_per_s"]

            def fire_batch(i, due):
                return generator.ingest(opened, self._take_batch(), due)

            streams.append((batch_rate, fire_batch))
            if len(self.batches) < self.next_batch + batch_rate * open_s:
                raise RuntimeError("too few ingest batches for the open-loop schedule")

        def fire_query(i, due):
            return generator.query(opened, i % 2, self._take_query(), due, keep)

        streams.append((query_rate, fire_query))
        lags: List[float] = []

        async def open_segment(length: float) -> None:
            lags.extend((await open_loop(streams, length))[1])

        before = await host.command(cmd="report")
        open_calibrations = await self._segmented(host, open_s, open_segment)
        # Peak memory after the open loop, which does the same work on
        # every run; the later phases' volume follows the host's speed.
        peak_rss = peak_rss_mb(str(host.pid))

        def looped(tally: Tally):
            """``fire(worker, due)`` for a closed loop recording into ``tally``."""
            if self.writes:
                def fire(worker, due):
                    batch = self._take_batch()
                    if batch is None:
                        raise RuntimeError("the ingest batches ran out")
                    return generator.ingest(tally, batch, due)
            else:
                def fire(worker, due):
                    return generator.query(tally, worker % 2, self._take_query(), due, keep)
            return fire

        sequential = Tally()
        fire_sequential = looped(sequential)

        async def sequential_segment(length: float) -> None:
            await closed_loop(1, length, fire_sequential)

        os.sched_setaffinity(0, self.host_cpus)
        try:
            sequential_calibrations = await self._segmented(host, sequential_s, sequential_segment)
        finally:
            os.sched_setaffinity(0, self.generator_cpus)

        closed = Tally()
        depth = serving["closed_ingest_depth" if self.writes else "closed_query_depth"]
        closed_start = await closed_loop(depth, closed_s, looped(closed))
        closed_calibration = await calibrate_both(host, self.settings["calibration"]["repeats"])
        after = await host.command(cmd="report")
        return {
            "open": opened,
            "open_calibrations": open_calibrations,
            "sequential": sequential,
            "sequential_calibrations": sequential_calibrations,
            "closed": closed,
            "closed_calibration": closed_calibration,
            "closed_window": (closed_start, closed_s),
            "lags": lags,
            "peak_rss_mb": peak_rss,
            "reports": (before, after),
        }

    async def run(self, trace: bool) -> Dict[str, Any]:
        serving = self.settings["serving"]
        # One core each for the deployment host and the generator, so
        # neither migrates onto the other's core (the sequential phase
        # moves the generator onto the host's core).
        cpus = sorted(os.sched_getaffinity(0))
        self.host_cpus = {cpus[0]}
        self.generator_cpus = {cpus[-1]}
        os.sched_setaffinity(0, self.generator_cpus)
        setups: List[float] = []
        setup_calibrations: List[Tuple[float, float]] = []
        host = generator = None
        try:
            for attempt in range(serving["setups"]):
                root = self.scratch / f"deploy-{attempt}"
                self.next_query = 0
                started = time.perf_counter()
                host, generator = await self._setup(root)
                setups.append(time.perf_counter() - started)
                setup_calibrations.append(await calibrate_both(host, self.settings["calibration"]["repeats"]))
                if attempt + 1 < serving["setups"]:
                    for client in generator.clients:
                        await client.close()
                    await host.stop()
                    shutil.rmtree(root, ignore_errors=True)
            # The generator's inputs are large and live for the whole run;
            # keep the collector from rescanning them mid-phase.
            gc.collect()
            gc.freeze()
            untraced = await self._phases(host, generator, self.seconds / 2 if trace else self.seconds)
            traced = None
            if trace:
                await host.command(cmd="trace", on=True)
                traced = await self._phases(host, generator, self.seconds / 2)
                await host.command(cmd="trace", on=False, path=str(self.scratch / "spans"))
            final = await self._quiesced_answers(generator) if self.writes else []
        finally:
            if generator is not None:
                for client in generator.clients:
                    await client.close()
            if host is not None:
                await host.stop()
        problems = list(generator.problems)
        problems += self._check(generator, final)
        result = self._metrics(setups, setup_calibrations, untraced)
        result["problems"] = problems
        if traced is not None:
            result["per_layer"] = self._per_layer(untraced, traced)
        return result

    async def _quiesced_answers(self, generator: Generator) -> List[Tuple[str, Tuple[str, ...], Any]]:
        answers = []
        for index, (kind, groups) in enumerate(inputs.unique_shapes(self.sequence)[: self.settings["serving"]["final_queries"]]):
            response = await generator.clients[index % 2].query(kind, groups=list(groups))
            answers.append((kind, groups, response["result"]))
        return answers

    def _check(self, generator: Generator, final) -> List[str]:
        """Compare answers with an unsharded reference store (untimed).

        Read workloads compare every answer; the write workload compares
        a quiesced final query set against the preload plus every batch
        sent, replayed in send order.
        """
        reference = inputs.Reference(self.preload)
        if not self.writes:
            return reference.mismatches(generator.answers)
        reference.ingest(
            Event.from_dict(event) for batch in generator.sent_batches for event in batch
        )
        return reference.mismatches(final)

    # ------------------------------------------------------------------
    def _metrics(self, setups, setup_calibrations, phases) -> Dict[str, Any]:
        """End-to-end figures at the reference speed, raw ones beside them:
        latencies of the sequential and open-loop phases (see
        ``windowed_latency``), closed-loop work per second, set-up."""
        serving = self.settings["serving"]
        lags = phases["lags"]
        tallies = {phase: phases[phase] for phase in ("open", "sequential", "closed")}
        calibrations = (
            setup_calibrations + phases["open_calibrations"]
            + phases["sequential_calibrations"] + [phases["closed_calibration"]]
        )
        kernels = [kernel_ms(calibration) for calibration in calibrations]
        scale = self.settings["calibration"]["reference_ms"] / statistics.median(kernels)

        def latency(phase: str, category: str) -> Dict[str, Any]:
            stats = windowed_latency(
                tallies[phase].latency[category], serving["window_requests"], serving["least_windows"]
            )
            stats.update(raw_p50=stats["p50"], raw_tail=stats["tail"])
            stats.update(p50=stats["p50"] * scale, tail=stats["tail"] * scale)
            return stats

        raw_rate = closed_rate(tallies["closed"].completions, *phases["closed_window"])
        rate = raw_rate / scale
        scaled_setups = [seconds * scale for seconds in setups]
        summary: Dict[str, Any] = {
            "setup_s": statistics.median(scaled_setups),
            "setups_s": scaled_setups,
            "raw_setups_s": setups,
            "kernel_ms": {
                "host": [c[0] for c in calibrations],
                "generator": [c[1] for c in calibrations],
            },
            "peak_rss_mb": phases["peak_rss_mb"],
            "counts": {phase: dict(tally.counts) for phase, tally in tallies.items()},
            "closed_s": phases["closed_window"][1],
            "generator_lag_ms": {
                "p50": percentile(lags, 50.0),
                "p99": percentile(lags, 99.0),
                "max": max(lags),
                "n": len(lags),
            },
            "query": latency("open", "query"),
            "attempted": sum(tally.counts["sent"] for tally in tallies.values()),
            "failed": sum(tally.bad for tally in tallies.values()),
        }
        if self.writes:
            summary["service"] = latency("sequential", "ingest")
            summary["ingest_ack"] = latency("open", "ingest")
            summary["ingest_eps"] = rate
            summary["raw_ingest_eps"] = raw_rate
        else:
            summary["service"] = latency("sequential", "query")
            summary["similarity"] = latency("open", "similarity")
            summary["query_qps"] = rate
            summary["raw_query_qps"] = raw_rate
        return summary

    def _per_layer(self, untraced, traced) -> Dict[str, Any]:
        spans, samples = tracing.load(str(self.scratch / "spans"))
        before, after = traced["reports"]
        values, stages = layers.serving_layers(spans, samples, before, after)
        values["generator.lag_ms"] = percentile(traced["lags"], 99.0)
        key = "ingest" if self.writes else "query"
        base = statistics.median(ms for _, ms in untraced["sequential"].latency[key])
        with_trace = statistics.median(ms for _, ms in traced["sequential"].latency[key])
        values["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
        return {"values": values, "stages": stages}


def windowed_latency(samples: List[Tuple[float, float]], size: int, least: int) -> Dict[str, Any]:
    """p50 and tail of an open-loop sample, as medians over windows when
    there are enough of them.

    With at least ``least`` consecutive windows of ``size`` requests (by
    due time), each window gives its p50 and its tail — the highest
    percentile with at least ten samples beyond it — and the figures are
    the medians over windows, so one host stall cannot set them.  A
    shorter sample is summarised whole by the same rule.
    """
    ordered = [ms for _, ms in sorted(samples)]
    count = len(ordered) // size
    if count < least:
        count = 1
    bounds = [round(i * len(ordered) / count) for i in range(count + 1)]
    summaries = [latency_summary(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return {
        "n": len(ordered),
        "windows": count,
        "p50": statistics.median(s["p50"] for s in summaries),
        "tail": statistics.median(s["tail"] for s in summaries),
        "tail_pct": min(s["tail_pct"] for s in summaries),
        "beyond": min(s["beyond"] for s in summaries),
    }


def closed_rate(completions: List[Tuple[float, int]], start: float, seconds: float) -> float:
    """Work completed per second within the closed-loop phase."""
    end = start + seconds
    return sum(work for done, work in completions if start <= done < end) / seconds
