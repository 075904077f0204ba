"""Open-loop serving: seeded Poisson arrivals into a ``PlacementServer``.

Independent users send requests on their own schedule, so the load is
an open loop: each request is submitted when it is due whether or not
earlier ones have finished, and its latency runs from when it was due
(so a stalled generator or a backlog is charged to every later
request).  How late the generator itself ran is reported separately.

The request mix is stratified: each kind's share of a phase is fixed
and its requests are spread as evenly as possible over the 7 apps,
so two seeds differ in order, arrival times, DRAM limits and what-if
candidates, not in how many LULESH what-ifs they happen to draw.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Optional

import numpy as np

GiB = 2 ** 30
LATENCY_LIMIT_MS = 1000.0
#: how much later requests may wait than early ones before the backlog
#: counts as growing
GROWTH_LIMIT_MS = 200.0
ADVISORY_DRAM_GB = (2, 4, 6, 8)
#: bw-aware requests embed an engine run whose cost depends on the
#: limit, so they all ask for the pipeline's nominal 4 GiB
BWAWARE_DRAM_GB = 4
ONLINE_DRAM_FRAC = (0.25, 0.5)
WHATIF_K = 8
KINDS = ("advisory", "bwaware", "whatif", "online")


def _split(n: int, shares: dict) -> dict:
    """Largest-remainder split of ``n`` requests over the kinds."""
    raw = {k: n * shares[k] for k in KINDS}
    counts = {k: int(raw[k]) for k in KINDS}
    for k in sorted(KINDS, key=lambda k: raw[k] - counts[k],
                    reverse=True)[:n - sum(counts.values())]:
        counts[k] += 1
    return counts


def make_requests(rng, n: int, shares: dict, apps, sites, tag: str) -> list:
    """``n`` seeded requests as (kind, app, request), in arrival order."""
    from repro.service.protocol import (
        AdvisoryRequest, OnlineRequest, WhatIfRequest,
    )

    items = []
    for kind, count in _split(n, shares).items():
        full, rest = divmod(count, len(apps))
        picked = list(apps) * full + list(rng.choice(apps, rest,
                                                     replace=False))
        items += [(kind, str(app)) for app in picked]
    order = rng.permutation(len(items))
    # each (kind, app) cycles through the parameter choices from a seeded
    # start, so a kind's cost mix is the same for every seed
    cycle = {}

    def pick(kind, app, choices):
        start, used = cycle.get((kind, app), (int(rng.integers(len(choices))), 0))
        cycle[(kind, app)] = (start, used + 1)
        return choices[(start + used) % len(choices)]

    out = []
    for i, j in enumerate(order):
        kind, app = items[j]
        rid = f"{tag}-{i}"
        if kind == "advisory":
            req = AdvisoryRequest(
                dram_limit=pick(kind, app, ADVISORY_DRAM_GB) * GiB,
                workload=app, session=rid)
        elif kind == "bwaware":
            req = AdvisoryRequest(dram_limit=BWAWARE_DRAM_GB * GiB,
                                  workload=app, algorithm="bw-aware",
                                  session=rid)
        elif kind == "whatif":
            req = WhatIfRequest(
                workload=app, session=rid,
                placements=tuple(
                    {s: ("dram" if bit else "pmem")
                     for s, bit in zip(sites[app],
                                       rng.random(len(sites[app])) < 0.5)}
                    for _ in range(WHATIF_K)))
        else:
            req = OnlineRequest(workload=app, session=rid,
                                dram_frac=pick(kind, app, ONLINE_DRAM_FRAC))
        out.append((kind, app, req))
    return out


def arrivals(rng, n: int, rate: float) -> list:
    """Poisson arrival offsets (seconds) for ``n`` requests at ``rate``."""
    return list(np.cumsum(rng.exponential(1.0 / rate, n)))


def drive(server, requests, offsets, rec=None, timeout_s: float = 120.0) -> dict:
    """Submit each request when due; latency is due -> resolved."""
    n = len(requests)
    done_at = [0.0] * n
    late = [0.0] * n
    due = [0.0] * n
    futures = []

    def on_done(i):
        def cb(_fut):
            done_at[i] = time.perf_counter()
        return cb

    start = time.perf_counter()
    for i, ((kind, app, req), off) in enumerate(zip(requests, offsets)):
        due[i] = start + off
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[i] = time.perf_counter() - due[i]
        fut = server.submit(req)
        fut.add_done_callback(on_done(i))
        futures.append(fut)
    finished, pending = wait(futures, timeout=timeout_s)
    if pending:
        raise RuntimeError(f"{len(pending)} requests still pending after "
                           f"{timeout_s:.0f} s")
    # done callbacks run on the resolving thread right after the result
    # is set; wait() can return just before the last one has run
    while any(d == 0.0 for d in done_at):
        time.sleep(0.001)
    end = max(done_at)
    reports = [f.result() for f in futures]
    latency_ms = [(d - u) * 1000.0 for d, u in zip(done_at, due)]
    for i, (kind, app, req) in enumerate(requests):
        if not reports[i].ok:
            latency_ms[i] = float("inf")  # a failure misses every limit
        if rec is not None:
            rec.record(f"request {kind} {app}", "serve.request", due[i],
                       done_at[i], rid=req.session)
    return {
        "latency_ms": latency_ms,
        "late_ms": [x * 1000.0 for x in late],
        "reports": reports,
        "window": (start, end),
        "drain_s": end - due[-1],
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def start_server(artifacts_root, apps, sites):
    """A warm server: all 7 profiles loaded and all 7 engines built.

    Profiles come from the artifact store the pipeline stage populated,
    the way a service deployed next to a pipeline would find them; one
    one-candidate what-if per app builds the engine the what-if and
    online paths share.
    """
    from repro.pipeline.artifacts import ArtifactStore
    from repro.profiling.cache import ProfileStore
    from repro.service import PlacementServer
    from repro.service.protocol import AdvisoryRequest, WhatIfRequest

    server = PlacementServer(workers=2,
                             artifact_store=ArtifactStore(artifacts_root),
                             profile_store=ProfileStore())
    server.start()
    warm = [AdvisoryRequest(dram_limit=4 * GiB, workload=a, session="setup")
            for a in apps]
    warm += [WhatIfRequest(workload=a, session="setup",
                           placements=({s: "pmem" for s in sites[a]},))
             for a in apps]
    for report in server.query_many(warm):
        if not report.ok:
            server.stop()
            raise RuntimeError(f"server warm-up failed: {report.error}")
    return server


def check_sample(rng, requests, reports, artifacts_root, sample: int) -> list:
    """Compare a seeded sample of reports to the sequential oracles.

    At least one request of every kind is checked, plus extra ones
    drawn at random; problems are returned as messages.
    """
    from repro.pipeline.artifacts import ArtifactStore
    from repro.service.protocol import OnlineRequest, WhatIfRequest
    from repro.service.server import (
        sequential_advisory, sequential_online, sequential_whatif,
    )

    store = ArtifactStore(artifacts_root)
    by_kind = {}
    for i, (kind, _, _) in enumerate(requests):
        by_kind.setdefault(kind, []).append(i)
    chosen = {int(rng.choice(ix)) for ix in by_kind.values()}
    rest = [i for i in range(len(requests)) if i not in chosen]
    extra = max(0, min(sample - len(chosen), len(rest)))
    chosen |= {int(i) for i in rng.choice(rest, extra, replace=False)}
    problems = []
    for i in sorted(chosen):
        kind, app, req = requests[i]
        if isinstance(req, WhatIfRequest):
            expected = sequential_whatif(req)
        elif isinstance(req, OnlineRequest):
            expected = sequential_online(req)
        else:
            expected = sequential_advisory(req, artifact_store=store)
        if reports[i] != expected:
            problems.append(f"{req.session} ({kind} {app}) differs from "
                            f"its sequential oracle")
    return problems


def summarize(run: dict, requests) -> dict:
    lat = run["latency_ms"]
    out = {
        "serve_p50_ms": percentile(lat, 50),
        "serve_p90_ms": percentile(lat, 90),
        "serve_p99_ms": percentile(lat, 99),
        "generator_late_ms": max(run["late_ms"]),
    }
    for kind in KINDS:
        ks = [x for x, (k, _, _) in zip(lat, requests) if k == kind]
        out[f"{kind}_p50_ms"] = percentile(ks, 50)
    return out


def sustained(run: dict) -> float:
    """How far a step is from the limit: <= 1 passes.

    A step passes when its p99 is within the latency limit and its
    backlog did not grow: the median latency of the step's last third
    of requests may exceed that of its first third by at most
    ``GROWTH_LIMIT_MS``.  The score is the larger of the two ratios.
    """
    lat = run["latency_ms"]
    k = max(1, len(lat) // 3)
    growth = statistics.median(lat[-k:]) - statistics.median(lat[:k])
    return max(percentile(lat, 99) / LATENCY_LIMIT_MS,
               growth / GROWTH_LIMIT_MS)


@dataclass
class Step:
    """One ladder step: its rate, its score (see ``sustained``), its run."""

    rate: float
    score: float
    run: Optional[dict]


def max_rate(steps) -> float:
    """Highest sustained rate, log-interpolated across the first failure.

    ``steps`` are in increasing rate order and end at the first step
    whose score exceeds 1.  If every step passed, the last rate is a
    lower bound and is returned as is; if the first failed, its rate is
    scaled down by its score.
    """
    fail = next((i for i, s in enumerate(steps) if s.score > 1.0), None)
    if fail is None:
        return steps[-1].rate
    hi = steps[fail]
    if not math.isfinite(hi.score):
        return steps[fail - 1].rate if fail else 0.0
    if fail == 0:
        return hi.rate / hi.score
    lo = steps[fail - 1]
    # interpolate log(rate) against log(score) to where score == 1
    frac = -math.log(lo.score) / (math.log(hi.score) - math.log(lo.score))
    return math.exp(math.log(lo.rate)
                    + frac * (math.log(hi.rate) - math.log(lo.rate)))
