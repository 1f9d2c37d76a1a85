"""The three workloads: seeded inputs, timed region, output checks.

Each workload runs in its own process (``child.py``).  ``setup`` does
everything a user pays before the first timed operation — imports,
clip generation, pack loading, starting the daemon — and ``measure``
runs the timed region and checks every output it produced.  The
program receives only the generated specs; the seed never reaches it
except through them.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins"

#: The paper's Figure-5 scheme set, in its legend order.
SCHEMES = ("NO", "GOP-3", "AIR-24", "PGOP-3", "PBPAIR")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 50)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Outcome:
    """What one measuring process reports back to ``run.py``.

    ``units`` are cells (batch workloads) or sessions (service); each
    unit's ``latency_s`` and ``digest`` travel with it, so the traced
    run can be diffed against the untraced one unit by unit.
    """

    frames: int = 0
    busy_s: list = field(default_factory=list)
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


class BatchWorkload:
    """Whole-grid passes through ``run_grid``, each on empty caches.

    ``seconds`` sets the number of passes through the nominal pass length
    ``pass_s``, never through the measured one, so every run on a given
    ``seconds`` does the same work however fast the host is (a count
    that followed the clock turned a slow pass into a one-pass run whose
    figures came from another population).  With ``passes`` given,
    exactly that many run.  Every cell's session digest is checked
    against the pinned one.

    The constructor takes the arguments every workload takes; ``seconds``
    and ``trace`` matter only to the service, because a batch workload
    is traced in its own process by ``child.py``.
    """

    name = ""
    pins_file = ""
    #: Nominal seconds of one pass on a 2-vCPU VM.
    pass_s = 1.0

    def __init__(self, seed: int, work: Path, seconds: float, trace: bool) -> None:
        from repro.api import encode_content_hash

        self.work = work
        self.specs = self.build_specs(seed)
        self.expected = json.loads((PINS / self.pins_file).read_text())["digests"]
        # Clip generation is set-up: it fills the runner's per-process
        # clip memo, which every later pass would hit anyway.
        for spec in self.specs:
            encode_content_hash(spec)

    def build_specs(self, seed: int) -> list:
        raise NotImplementedError

    @staticmethod
    def key(spec) -> str:
        raise NotImplementedError

    @classmethod
    def passes_for(cls, seconds: float) -> int:
        return max(1, round(seconds / cls.pass_s))

    def measure(self, seconds: float, passes: Optional[int], span) -> Outcome:
        from repro.api import RunnerOptions, session_result_digest
        from repro.sim import runner

        outcome = Outcome()
        if passes is None:
            passes = self.passes_for(seconds)
        for index in range(passes):
            cache_dir = fresh_dir(self.work / f"pass{index}")
            options = RunnerOptions(jobs=1, cache_dir=cache_dir)
            t0 = time.perf_counter()
            # Looked up on the module at call time, so a traced run goes
            # through the wrapper tracer.py installed there.
            results = span("bench.pass", runner.run_grid, self.specs, options=options)
            elapsed = time.perf_counter() - t0
            shutil.rmtree(cache_dir, ignore_errors=True)
            for result in results:
                key = self.key(result.spec)
                digest = (
                    session_result_digest(result.result) if result.ok else None
                )
                outcome.attempted += 1
                frames = 0
                if digest is None or digest != self.expected.get(key):
                    outcome.failed += 1
                    outcome.mismatches.append(key)
                else:
                    frames = result.result.n_frames
                outcome.frames += frames
                outcome.units.append(
                    {
                        "key": f"{index}|{key}",
                        "latency_s": result.wall_time_s,
                        "frames": frames,
                        "class": "all",
                        "digest": digest,
                    }
                )
            outcome.busy_s.append(elapsed)
        return outcome

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Fig5Cold(BatchWorkload):
    """The paper's Figure 5 grid, every cell cold."""

    name = "fig5-cold"
    why = (
        "every cell pays a full encode and decode with no shared stream, "
        "so the codec layers carry the run and the caches are bypassed"
    )
    pins_file = "fig5_cold.json"
    pass_s = 7.5
    sequences = ("foreman", "akiyo", "garden")
    n_frames = 40
    plr = 0.10
    intra_th = 0.92
    #: The loss seed of the repo's Figure-5 benchmark; each cell draws
    #: its channel seed from the pinned pool that starts here.
    loss_seed = 2005
    seed_pool = 16

    @classmethod
    def params(cls, seconds: float) -> dict:
        return {
            "schemes": list(SCHEMES),
            "sequences": list(cls.sequences),
            "n_frames": cls.n_frames,
            "resolution": "QCIF 176x144",
            "plr": cls.plr,
            "pbpair_intra_th": cls.intra_th,
            "loss_seed": cls.loss_seed,
            "channel_seed_pool": cls.seed_pool,
            "runner": "run_grid, RunnerOptions(jobs=1), empty cache dir per pass",
            "passes": cls.passes_for(seconds),
        }

    @classmethod
    def channel_seeds(cls, seed: int) -> list[int]:
        """One channel seed per cell, drawn from the pinned pool."""
        rng = random.Random(f"{cls.name}:{seed}")
        cells = len(cls.sequences) * len(SCHEMES)
        return [cls.loss_seed + rng.randrange(cls.seed_pool) for _ in range(cells)]

    @classmethod
    def cells(cls, channel_seeds):
        from repro.api import JobSpec

        grid = [(seq, scheme) for seq in cls.sequences for scheme in SCHEMES]
        return [
            JobSpec(
                scheme=scheme,
                plr=cls.plr,
                channel_seed=channel_seed,
                sequence=seq,
                n_frames=cls.n_frames,
                pbpair_kwargs=(
                    {"intra_th": cls.intra_th} if scheme == "PBPAIR" else {}
                ),
            )
            for (seq, scheme), channel_seed in zip(grid, channel_seeds)
        ]

    def build_specs(self, seed: int) -> list:
        return self.cells(self.channel_seeds(seed))

    @staticmethod
    def key(spec) -> str:
        return f"{spec.sequence}|{spec.scheme}|{spec.channel_seed}"


class ScenarioFleet(BatchWorkload):
    """Five schemes × the nine shipped scenario packs × two replicas."""

    name = "scenario-fleet"
    why = (
        "90 cells share 12 encodes, so the transmit side (loss models, "
        "caps, FEC, retransmission, decode) dominates and the stream "
        "cache is read far more often than written"
    )
    pins_file = "scenario_fleet.json"
    pass_s = 13.5
    sequence = "foreman"
    n_frames = 30
    replicas = 2
    #: Fleet base seeds 0..seed_pool-1; base seed 0 is the grid whose
    #: 45 cell digests BENCH_scenarios.json commits.
    seed_pool = 8

    @classmethod
    def params(cls, seconds: float) -> dict:
        return {
            "schemes": list(SCHEMES),
            "packs": "every shipped pack (9)",
            "sequence": cls.sequence,
            "n_frames": cls.n_frames,
            "replicas": cls.replicas,
            "base_seed_pool": cls.seed_pool,
            "runner": (
                "run_fleet's grid (fleet_jobs, run_grid), "
                "RunnerOptions(jobs=1), empty cache dir per pass"
            ),
            "passes": cls.passes_for(seconds),
        }

    @classmethod
    def fleet(cls, base_seed: int) -> list:
        from repro.api import fleet_jobs

        return fleet_jobs(
            SCHEMES,
            None,
            sequence=cls.sequence,
            n_frames=cls.n_frames,
            replicas=cls.replicas,
            base_seed=base_seed,
        )

    def build_specs(self, seed: int) -> list:
        return self.fleet(seed % self.seed_pool)

    @staticmethod
    def key(spec) -> str:
        return f"{spec.scheme}|{spec.scenario.name}|{spec.channel_seed}"

    @staticmethod
    def cell_digest(session_digests) -> str:
        """A fleet cell's digest, formed as :func:`repro.api.build_cell` does.

        ``pin.py`` and the smoke tests use it to tie the pinned session
        digests to the 45 cell digests committed in BENCH_scenarios.json.
        """
        return hashlib.sha256(
            json.dumps(sorted(session_digests)).encode("utf-8")
        ).hexdigest()


# ---------------------------------------------------------------------------
# service-bursts
# ---------------------------------------------------------------------------

#: ``benchmarks/bench_service.py``'s three session classes.
SESSION_CLASSES = (
    ("interactive", "NO", 2),
    ("standard", "PBPAIR", 1),
    ("bulk", "GOP-3", 0),
)


@dataclass(frozen=True)
class Session:
    """One scheduled session: due ``due_s`` after the schedule starts."""

    index: int
    due_s: float
    session_class: str
    priority: int
    spec: object
    repeat_of: Optional[int] = None


def run_schedule(
    sessions,
    submit: Callable[[list], list],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
):
    """Send each burst at its due time, open loop, one request per burst.

    Consecutive sessions with the same due time form a burst.  Returns
    ``(start, sends)`` where ``start`` is the clock reading the due
    times count from and ``sends`` holds, per session, ``(job_id,
    sent_at, rtt_s)``.  A submit that blocks delays every later send;
    that delay is the generator's lag, and latency is measured from the
    due time, so a stall is charged to the sessions that waited on it.
    """
    start = clock()
    sends = []
    index = 0
    while index < len(sessions):
        end = index + 1
        while end < len(sessions) and sessions[end].due_s == sessions[index].due_s:
            end += 1
        burst = sessions[index:end]
        wait = start + burst[0].due_s - clock()
        if wait > 0:
            sleep(wait)
        sent_at = clock()
        job_ids = submit(burst)
        rtt = clock() - sent_at
        sends.extend((job_id, sent_at, rtt) for job_id in job_ids)
        index = end
    return start, sends


class ServiceBursts:
    """Bursty open-loop sessions against the encode daemon."""

    name = "service-bursts"
    why = (
        "tiny sessions make queue, claim, journal, HTTP and result-cache "
        "work dominate; bursts build a queue that priority must order"
    )
    burst = 16
    period_s = 2.0
    repeat_every = 10
    plr = 0.1

    @classmethod
    def params(cls, seconds: float) -> dict:
        return {
            "arrivals": "open loop, one generator process",
            "burst_sessions": cls.burst,
            "burst_period_s": cls.period_s,
            "bursts": cls.bursts(seconds),
            "mean_rate_per_s": cls.burst / cls.period_s,
            "classes": [
                {"name": n, "scheme": s, "priority": p}
                for n, s, p in SESSION_CLASSES
            ],
            "clip": "64x48 x 8 frames (bench_service.py)",
            "plr": cls.plr,
            "repeat_every": cls.repeat_every,
            "daemon": "start_daemon, RunnerOptions(jobs=1), own process",
        }

    @classmethod
    def bursts(cls, seconds: float) -> int:
        return max(1, int(seconds / cls.period_s))

    @classmethod
    def schedule(cls, seed: int, seconds: float) -> list[Session]:
        """Round-robin classes, unique channel seeds, one repeat in ten."""
        from repro.api import CodecConfig, JobSpec, SimulationConfig
        from repro.api import SyntheticConfig

        clip = SyntheticConfig(
            width=64,
            height=48,
            n_frames=8,
            texture_scale=30.0,
            object_radius=10,
            object_motion_amplitude=10.0,
            object_motion_period=8,
            seed=11,
        )
        config = SimulationConfig(codec=CodecConfig(width=64, height=48), mtu=200)
        rng = random.Random(f"{cls.name}:{seed}")
        sessions: list[Session] = []
        for burst in range(cls.bursts(seconds)):
            first_of_burst = len(sessions)
            for slot in range(cls.burst):
                index = len(sessions)
                due = burst * cls.period_s
                session_class, scheme, priority = SESSION_CLASSES[
                    index % len(SESSION_CLASSES)
                ]
                # Every tenth session after the first burst repeats an
                # earlier spec of its own class, so each burst's class
                # mix and cache-hit count are the same for every seed.
                if first_of_burst and index % cls.repeat_every == cls.repeat_every - 1:
                    original = rng.choice(
                        [
                            s
                            for s in sessions[:first_of_burst]
                            if s.session_class == session_class
                            and s.repeat_of is None
                        ]
                    )
                    sessions.append(
                        Session(
                            index,
                            due,
                            session_class,
                            priority,
                            original.spec,
                            repeat_of=original.index,
                        )
                    )
                    continue
                spec = JobSpec(
                    scheme=scheme,
                    plr=cls.plr,
                    channel_seed=seed * 1_000_003 + index,
                    sequence="bench",
                    synthetic=clip,
                    config=config,
                    pbpair_kwargs={"intra_th": 0.9} if scheme == "PBPAIR" else {},
                )
                sessions.append(
                    Session(index, due, session_class, priority, spec)
                )
        return sessions

    def __init__(
        self,
        seed: int,
        work: Path,
        seconds: float,
        trace: bool,
    ) -> None:
        from repro.api import ServiceClient

        self.work = work
        self.sessions = self.schedule(seed, seconds)
        self.report_path = work / "daemon.json"
        command = [
            sys.executable,
            str(HERE / "daemon_main.py"),
            "--queue-dir",
            str(fresh_dir(work / "queue")),
            "--cache-dir",
            str(fresh_dir(work / "daemon_cache")),
            "--report",
            str(self.report_path),
        ]
        if trace:
            command.append("--trace")
        self.daemon = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        url = self.daemon.stdout.readline().strip()
        if not url.startswith("http://"):
            self.close()
            raise RuntimeError(f"daemon did not start (said {url!r})")
        self.client = ServiceClient(url)
        self.client.health()
        self.daemon_report: Optional[dict] = None

    def measure(self, seconds: float, passes: Optional[int], span) -> Outcome:
        from repro.api import JobSubmit, RunnerOptions, run_grid
        from repro.api import session_result_digest

        client = self.client
        submits = [
            JobSubmit(spec=s.spec, priority=s.priority, session_class=s.session_class)
            for s in self.sessions
        ]
        # Daemon timestamps are wall-clock; due times are perf_counter.
        offset = time.time() - time.perf_counter()
        start, sends = run_schedule(
            self.sessions,
            lambda burst: client.submit([submits[s.index] for s in burst]),
        )
        wall_start = start + offset
        # The window is the whole schedule: the last burst gets a full
        # period to drain before the generator polls (single records
        # only, so the wait adds little work to the daemon).
        remaining = start + self.bursts(seconds) * self.period_s - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        pending = [job_id for job_id, _, _ in sends]
        deadline = time.monotonic() + 120.0
        while pending and time.monotonic() < deadline:
            still = []
            for job_id in pending:
                if still or not client.status(job_id).terminal:
                    still.append(job_id)
            pending = still
            if pending:
                time.sleep(0.05)
        statuses = {status.job_id: status for status in client.jobs()}
        digests = {}
        for job_id, _, _ in sends:
            status = statuses.get(job_id)
            if status is not None and status.ok:
                digests[job_id] = client.result(job_id).result_digest
        self.stop_daemon()

        # The bit-identity check: a batch run_grid of the same specs,
        # outside the timed region, must reproduce every digest.
        unique = {}
        for session in self.sessions:
            unique.setdefault(session.spec.content_hash(), session.spec)
        batch = run_grid(
            list(unique.values()),
            options=RunnerOptions(jobs=1, cache_dir=fresh_dir(self.work / "batch")),
        )
        reference = {
            result.spec.content_hash(): session_result_digest(result.result)
            for result in batch
            if result.ok
        }

        outcome = Outcome()
        for session, (job_id, sent_at, rtt) in zip(self.sessions, sends):
            outcome.attempted += 1
            status = statuses.get(job_id)
            digest = digests.get(job_id)
            due = wall_start + session.due_s
            key = f"{session.index}|{session.spec.content_hash()[:16]}"
            ok = (
                status is not None
                and status.ok
                and digest is not None
                and digest == reference.get(session.spec.content_hash())
            )
            if not ok:
                outcome.failed += 1
                outcome.mismatches.append(key)
                continue
            outcome.frames += session.spec.synthetic.n_frames
            outcome.units.append(
                {
                    "key": key,
                    "latency_s": status.finished_at - due,
                    "class": session.session_class,
                    "digest": digest,
                    "lag_s": sent_at - (start + session.due_s),
                    "rtt_s": rtt,
                    "queue_wait_s": status.started_at - status.submitted_at,
                    "execute_s": status.finished_at - status.started_at,
                    "burst": round(session.due_s / self.period_s),
                }
            )
        outcome.busy_s.append(self.daemon_report["serve_cpu_s"])
        outcome.extra["daemon"] = self.daemon_report
        return outcome

    def stop_daemon(self) -> None:
        """Ask the launcher to stop the daemon; read its report."""
        if self.daemon.poll() is None:
            try:
                self.daemon.stdin.write("stop\n")
                self.daemon.stdin.flush()
            except BrokenPipeError:
                pass
            self.daemon.wait(timeout=60)
        if self.report_path.exists():
            self.daemon_report = json.loads(self.report_path.read_text())

    def close(self) -> None:
        if self.daemon.poll() is None:
            self.daemon.terminate()
            try:
                self.daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    Fig5Cold.name: Fig5Cold,
    ScenarioFleet.name: ScenarioFleet,
    ServiceBursts.name: ServiceBursts,
}
