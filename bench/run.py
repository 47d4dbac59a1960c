#!/usr/bin/env python3
"""Benchmark for ascon-aead: small-message latency, bulk throughput, CLI KAT time.

Run from the root of a source checkout; it needs only the standard library
and imports the package from ``src/`` (no install step):

    python3 bench/run.py --workload small --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each call starts when
the previous one has returned.  Every workload is a fixed list of messages
made from ``--seed`` before any timing starts, and is driven through two
interfaces in alternation:

* the library: ``encrypt`` then ``decrypt`` of each message, in order;
* the CLI: ``python -m ascon_aead.cli kat`` as a subprocess, once per
  variant, over the workload's messages written as KAT files (for ``kat``,
  the bundled NIST files themselves).

Workloads:

* ``small``  plaintext 0-64 B, AD 0-32 B, fresh key and nonce per message.
  Per-message fixed cost (two 12-round permutations, argument checks,
  padding) dominates; every input is below the block count at which the
  package hands data to a compiled kernel.
* ``bulk``   64 KiB plaintext, 16 B AD.  Data-phase rounds are over 99% of
  the work; decrypt takes a different data path from encrypt.
* ``kat``    the two bundled vector files (1089 records each), in an order
  drawn from the seed.  The CLI pass is what conformance users run; it is
  dominated by parsing and process start-up once the data path is fast.

End-to-end metrics (``--trace 0``), each reported on every workload:

* ``setup_s``: a fresh interpreter imports the package and encrypts and
  decrypts the workload's first message; median of SETUP_REPEATS.
* ``ops_per_s``: library calls (encrypt or decrypt) per second spent in them.
* ``enc_p50_us`` .. ``dec_p99_us``: call latency percentiles, taken per
  variant and averaged over the two variants.  On ``bulk`` a run holds only
  a few dozen calls per variant and direction, so p99 is close to the
  slowest of them.
* ``enc_MiBps.<variant>``, ``dec_MiBps.<variant>``: plaintext bytes per
  second of call time.
* ``kat_run_s``: median wall time of one CLI pass (both variants).
* ``fail_ratio`` (printed, and in the result file): failed / attempted.

Times are rescaled to a reference machine speed (see SpeedGauge): on a
shared host the speed of this process moves in steps of 1.5x and more within
seconds, which would swamp any regression bound worth setting.

Per-layer metrics (``--trace 1``): the run round-trips each message both
through the library and through the four AEAD phases composed here, with a
span around each phase and around every ``permute`` call the phases make;
it checks that both give the same output, reports each phase's mean time,
the cost model's rounds per call, the permutation's in-context cost per
round and the tracing overhead, and times the codec, kat and cli modules
from outside.  Per-layer times are wall times, not rescaled.

Every output is checked: each decrypt must return its plaintext, every
``TAMPER_EVERY``-th message is also submitted with one tag bit flipped and
must be rejected, the CLI must report no failures, encrypt must reproduce
the vector file's CT on ``kat``, and a fixed set of inputs must match
SHA-256 digests in ``golden.json``.  Any exception counts as a failure.

Human-readable lines (environment, each metric with its unit) come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment record, and the trace spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VECTORS = ROOT / "tests" / "vectors"
OUT_DIR = ROOT / ".bench_out"
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("small", "bulk", "kat")
VARIANT_NAMES = ("ascon128", "ascon128a")

SMALL_MESSAGES = 8192  # cycled; at ~1 ms per message a run reuses each a few times
SMALL_CLI_RECORDS = 128  # records per variant in the small workload's KAT files
BULK_PT_BYTES = 64 * 1024
BULK_AD_BYTES = 16
BULK_MESSAGES = 8
BULK_CLI_RECORDS = 1
TAMPER_EVERY = 8
# Library time per CLI pass: the CLI gets a third of the measured time.
LIBRARY_SHARE = 2.0
SETUP_REPEATS = 5
WINDOW_S = 0.2  # library calls between two machine-speed calibrations
CALIBRATION_STEPS = 400
CALIBRATION_REF_S = 0.001  # the reference speed: the loop takes 1 ms
MASK64 = 0xFFFFFFFFFFFFFFFF
KAT_PROBE_REPEATS = 3

# A fresh interpreter: import the package, encrypt and decrypt one message
# read from stdin as "variant,key,nonce,ad,pt" in hex, and check the result.
SETUP_CHILD = """
import sys
import ascon_aead
variant, *fields = sys.stdin.read().split(",")
key, nonce, ad, pt = (bytes.fromhex(f) for f in fields)
params = ascon_aead.VARIANTS[variant]
ct, tag = ascon_aead.encrypt(params, key, nonce, ad, pt)
sys.exit(0 if ascon_aead.decrypt(params, key, nonce, ad, ct, tag) == pt else 1)
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or vector files)."""


# --------------------------------------------------------------------------
# Inputs


@dataclass(frozen=True)
class Message:
    variant: str
    key: bytes
    nonce: bytes
    ad: bytes
    pt: bytes
    expected: bytes | None = None  # CT || tag, where a vector file gives it


def kat_file(variant: str) -> Path:
    return VECTORS / variant / "LWC_AEAD_KAT_128_128.txt"


def make_messages(workload: str, seed: int) -> list[Message]:
    """The workload's messages, a pure function of (workload, seed).

    Variants alternate: even indices are ASCON-128, odd ones ASCON-128a.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "small":
        return [
            Message(
                VARIANT_NAMES[i % 2],
                rng.randbytes(16),
                rng.randbytes(16),
                rng.randbytes(rng.randint(0, 32)),
                rng.randbytes(rng.randint(0, 64)),
            )
            for i in range(SMALL_MESSAGES)
        ]
    if workload == "bulk":
        return [
            Message(
                VARIANT_NAMES[i % 2],
                rng.randbytes(16),
                rng.randbytes(16),
                rng.randbytes(BULK_AD_BYTES),
                rng.randbytes(BULK_PT_BYTES),
            )
            for i in range(BULK_MESSAGES)
        ]
    from ascon_aead.kat import parse_kat_file

    per_variant = []
    for variant in VARIANT_NAMES:
        records = parse_kat_file(kat_file(variant).read_text())
        rng.shuffle(records)
        per_variant.append(
            [Message(variant, r.key, r.nonce, r.ad, r.pt, r.ct_and_tag) for r in records]
        )
    return [m for pair in zip(*per_variant) for m in pair]


def inputs_digest(messages: list[Message]) -> str:
    h = hashlib.sha256()
    for m in messages:
        for part in (m.variant.encode(), m.key, m.nonce, m.ad, m.pt):
            h.update(len(part).to_bytes(4, "big"))
            h.update(part)
    return h.hexdigest()


def golden_messages() -> dict[str, Message]:
    """Fixed inputs whose CT||tag digests are committed in golden.json.

    Lengths run past 32 rate blocks in both AD and plaintext, so a backend
    that only diverges on long inputs is caught.
    """
    lengths = [(0, 0), (0, 1), (1, 0), (7, 8), (8, 7), (16, 16), (31, 33),
               (600, 16), (16, 600), (3, 1031), (16, 4096)]
    cases = {}
    for variant in VARIANT_NAMES:
        for ad_len, pt_len in lengths:
            name = f"{variant}/ad{ad_len}/pt{pt_len}"
            stream = b""
            counter = 0
            while len(stream) < 32 + ad_len + pt_len:
                stream += hashlib.sha256(f"{name}#{counter}".encode()).digest()
                counter += 1
            cases[name] = Message(
                variant,
                stream[:16],
                stream[16:32],
                stream[32 : 32 + ad_len],
                stream[32 + ad_len : 32 + ad_len + pt_len],
            )
    return cases


# --------------------------------------------------------------------------
# Cost model


def permutation_calls(params, ad_len: int, pt_len: int) -> tuple[int, int]:
    """(p^a calls, p^b calls) one encrypt or decrypt costs, from public lengths."""
    r = params.rate_bytes
    return 2, (ad_len // r + 1 if ad_len else 0) + pt_len // r


def rounds_per_op(params, ad_len: int, pt_len: int) -> int:
    calls_a, calls_b = permutation_calls(params, ad_len, pt_len)
    return calls_a * params.rounds_a + calls_b * params.rounds_b


# --------------------------------------------------------------------------
# Checks and the closed loop


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def check_golden(api, tally: Tally, digests: dict[str, str]) -> None:
    for name, m in golden_messages().items():
        tally.attempted += 1
        params = api.VARIANTS[m.variant]
        try:
            ct, tag = api.encrypt(params, m.key, m.nonce, m.ad, m.pt)
            back = api.decrypt(params, m.key, m.nonce, m.ad, ct, tag)
        except Exception as exc:
            tally.fail(f"golden {name}: {type(exc).__name__}")
            continue
        if hashlib.sha256(ct + tag).hexdigest() != digests.get(name) or back != m.pt:
            tally.fail(f"golden {name}: output differs from the committed digest")


def flip_bit(tag: bytes, index: int) -> bytes:
    bit = index % (8 * len(tag))
    out = bytearray(tag)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@dataclass
class CallStats:
    """Per (direction, variant): call latencies in seconds and plaintext bytes."""

    seconds: dict = field(default_factory=dict)
    pt_bytes: dict = field(default_factory=dict)

    def add(self, direction: str, variant: str, elapsed: float, nbytes: int) -> None:
        self.seconds.setdefault((direction, variant), []).append(elapsed)
        self.pt_bytes[direction, variant] = self.pt_bytes.get((direction, variant), 0) + nbytes


def round_trip(api, m: Message, index: int, record, tally: Tally) -> None:
    """Encrypt then decrypt message number `index`, calling
    record(direction, variant, seconds, plaintext bytes) after each
    successful call.  Every TAMPER_EVERY-th message is also submitted with a
    flipped tag bit."""
    clock = time.perf_counter
    params = api.VARIANTS[m.variant]
    tally.attempted += 1
    try:
        t0 = clock()
        ct, tag = api.encrypt(params, m.key, m.nonce, m.ad, m.pt)
        t1 = clock()
    except Exception as exc:
        tally.fail(f"encrypt #{index}: {type(exc).__name__}")
        return
    if m.expected is not None and ct + tag != m.expected:
        tally.fail(f"encrypt #{index}: differs from the vector file")
    else:
        record("enc", m.variant, t1 - t0, len(m.pt))
    tally.attempted += 1
    try:
        t0 = clock()
        back = api.decrypt(params, m.key, m.nonce, m.ad, ct, tag)
        t1 = clock()
    except Exception as exc:
        tally.fail(f"decrypt #{index}: {type(exc).__name__}")
    else:
        if back == m.pt:
            record("dec", m.variant, t1 - t0, len(m.pt))
        else:
            tally.fail(f"decrypt #{index}: wrong plaintext")
    if index % TAMPER_EVERY == 0:
        tally.attempted += 1
        try:
            api.decrypt(params, m.key, m.nonce, m.ad, ct, flip_bit(tag, index))
        except api.AuthenticationFailure:
            pass
        except Exception as exc:
            tally.fail(f"forgery #{index}: {type(exc).__name__}")
        else:
            tally.fail(f"forgery #{index}: accepted a flipped tag")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_kat_file(path: Path, api, messages: list[Message]) -> None:
    """Write messages as NIST LWC KAT records, CT computed by the library."""
    lines = []
    for count, m in enumerate(messages, start=1):
        ct, tag = api.encrypt(api.VARIANTS[m.variant], m.key, m.nonce, m.ad, m.pt)
        lines += [
            f"Count = {count}",
            f"Key = {m.key.hex().upper()}",
            f"Nonce = {m.nonce.hex().upper()}",
            f"PT = {m.pt.hex().upper()}",
            f"AD = {m.ad.hex().upper()}",
            f"CT = {(ct + tag).hex().upper()}",
            "",
        ]
    path.write_text("\n".join(lines))


def cli_kat(variant: str, path: Path, records: int, tally: Tally) -> float:
    """Run the CLI's kat command once; return its wall time in seconds."""
    tally.attempted += 1
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ascon_aead.cli", "kat", "--variant", variant, str(path)],
        cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    expected = f"total={records} passed={2 * records} failed=0"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or lines[-1] != expected:
        tally.fail(f"cli kat {variant}: exit {proc.returncode}, {lines[-1:]}")
    return wall


def setup_seconds(m: Message, tally: Tally) -> float:
    """Wall time of a fresh interpreter that imports the package and round-trips `m`."""
    payload = ",".join([m.variant, m.key.hex(), m.nonce.hex(), m.ad.hex(), m.pt.hex()])
    tally.attempted += 1
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], input=payload, cwd=ROOT,
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.fail(f"setup: exit {proc.returncode} {proc.stderr.strip()[-200:]}")
    return wall


# --------------------------------------------------------------------------
# Machine speed
#
# A fixed pure-Python loop that shares no code with the package slows and
# speeds up with the host, to within a few percent of the package itself,
# so each window of samples is rescaled to what it would have read at a
# reference speed.  A change to the package leaves the loop alone.


def _mix(s):
    a, b, c, d, e = s
    a ^= e
    c ^= b
    a, b, c, d, e = (a ^ (b | c), b ^ (c & d), c ^ (d | e), d ^ (e & a), e ^ (a | b))
    return (
        a ^ ((a >> 13) | (a << 51)) & MASK64,
        b ^ ((b >> 29) | (b << 35)) & MASK64,
        c ^ ((c >> 3) | (c << 61)) & MASK64,
        d ^ ((d >> 47) | (d << 17)) & MASK64,
        e ^ ((e >> 5) | (e << 59)) & MASK64,
    )


def calibration_seconds() -> float:
    """Median of five timings of a fixed 64-bit mixing loop."""
    times = []
    for _ in range(5):
        s = (1, 2, 3, 4, 5)
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_STEPS):
            s = _mix(s)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedGauge:
    """Calibrates at each window boundary; a window's factor rescales its
    wall times to the reference speed (CALIBRATION_REF_S for the loop)."""

    def __init__(self) -> None:
        self.last = calibration_seconds()
        self.factors: list[float] = []

    def close_window(self) -> float:
        now = calibration_seconds()
        factor = 2 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


class Recorder:
    """Collects call samples into windows of about WINDOW_S, rescaling each
    window by the speed factor measured at its two ends."""

    def __init__(self, gauge: SpeedGauge, stats: CallStats) -> None:
        self.gauge, self.stats = gauge, stats
        self.window: list[tuple] = []
        self.start = time.perf_counter()

    def __call__(self, direction: str, variant: str, elapsed: float, nbytes: int) -> None:
        self.window.append((direction, variant, elapsed, nbytes))
        if time.perf_counter() - self.start >= WINDOW_S:
            self.flush()

    def flush(self) -> None:
        if self.window:
            factor = self.gauge.close_window()
            for direction, variant, elapsed, nbytes in self.window:
                self.stats.add(direction, variant, elapsed * factor, nbytes)
            self.window = []
        self.start = time.perf_counter()


# --------------------------------------------------------------------------
# Metrics from samples


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def per_variant_mean(fn, stats: CallStats, direction: str) -> float:
    """Mean over the two variants of fn(samples); each variant is taken on its
    own because their costs differ by ~1.6x, which would make a pooled
    percentile jump between the two modes."""
    return statistics.fmean(fn(stats.seconds[direction, v]) for v in VARIANT_NAMES)


def end_to_end_metrics(stats: CallStats, cli_walls: list[float], setups: list[float]) -> dict:
    calls = sum(len(s) for s in stats.seconds.values())
    busy = sum(sum(s) for s in stats.seconds.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (calls / busy, "1/s"),
    }
    for direction in ("enc", "dec"):
        for pct in (50, 99):
            value = per_variant_mean(lambda s: percentile(s, pct), stats, direction)
            metrics[f"{direction}_p{pct}_us"] = (value * 1e6, "us")
    for direction in ("enc", "dec"):
        for v in VARIANT_NAMES:
            mib = stats.pt_bytes[direction, v] / 2**20
            metrics[f"{direction}_MiBps.{v}"] = (mib / sum(stats.seconds[direction, v]), "MiB/s")
    metrics["kat_run_s"] = (statistics.median(cli_walls), "s")
    return metrics


# --------------------------------------------------------------------------
# Traced run: the four phases composed here, one span around each


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, op id].

    A span opened while another is open is its child; a span with no parent
    starts a new operation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.ops = 0

    def begin(self, name: str) -> None:
        parent = self.open[-1] if self.open else -1
        if parent < 0:
            self.ops += 1
        self.open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.ops])

    def end(self) -> None:
        self.spans[self.open.pop()][2] = time.perf_counter_ns()

    def durations_ns(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for name, start, end, _, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name, each span's duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, list[int]] = {}
        for (name, *_), ns in zip(self.spans, own):
            out.setdefault(name, []).append(ns)
        return out

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s, separators=(",", ":")) + "\n" for s in self.spans))


def traced_encrypt(aead, tracer: Tracer, params, m: Message):
    """aead.encrypt, composed from its four phases with a span around each."""
    tracer.begin("op.encrypt")
    tracer.begin("aead.initialize")
    state = aead.initialize(params, m.key, m.nonce)
    tracer.end()
    tracer.begin("aead.ad")
    state = aead.process_associated_data(state, params, m.ad)
    tracer.end()
    tracer.begin("aead.encrypt_data")
    state, ct = aead.encrypt_data(state, params, m.pt)
    tracer.end()
    tracer.begin("aead.finalize")
    tag = aead.finalize(state, params, m.key)
    tracer.end()
    tracer.end()
    return ct, tag


def traced_decrypt(aead, tracer: Tracer, params, m: Message, ct: bytes, tag: bytes):
    """aead.decrypt composed the same way; None when the recomputed tag differs."""
    tracer.begin("op.decrypt")
    tracer.begin("aead.initialize")
    state = aead.initialize(params, m.key, m.nonce)
    tracer.end()
    tracer.begin("aead.ad")
    state = aead.process_associated_data(state, params, m.ad)
    tracer.end()
    tracer.begin("aead.decrypt_data")
    state, pt = aead.decrypt_data(state, params, ct)
    tracer.end()
    tracer.begin("aead.finalize")
    expected = aead.finalize(state, params, m.key)
    tracer.end()
    ok = hmac.compare_digest(expected, tag)
    tracer.end()
    return pt if ok else None


def spanned_permute(tracer: Tracer, permute):
    """A stand-in for aead.permute that records each call as a span."""

    def traced(state, rounds=12):
        tracer.begin(f"permutation.permute{rounds}")
        try:
            return permute(state, rounds)
        finally:
            tracer.end()

    return traced


PROBE_INTERVAL_S = 0.05


def probe_permutation(permutation, state, samples: dict) -> None:
    """Time each permutation function once on `state`, adding seconds per call
    to `samples`.  Run between workload messages, under the same machine load."""
    clock = time.perf_counter
    for name, fn, number in (("permutation.sbox_us", permutation.substitution_layer, 20),
                             ("permutation.linear_us", permutation.linear_layer, 10)):
        t0 = clock()
        for _ in range(number):
            fn(state)
        samples.setdefault(name, []).append((clock() - t0) / number)
    for rounds in (6, 8, 12):
        t0 = clock()
        permutation.permute(state, rounds)
        samples.setdefault(f"permutation.permute{rounds}_us", []).append(clock() - t0)


@dataclass
class TracedRun:
    untraced: list = field(default_factory=list)  # seconds per library call
    traced: list = field(default_factory=list)  # seconds per composed, spanned call
    rounds: list = field(default_factory=list)  # cost-model rounds per call
    probes: dict = field(default_factory=dict)  # permutation probe -> seconds per call


def run_traced(api, messages, deadline: float, tracer: Tracer, tally: Tally) -> TracedRun:
    """Round-trip each message through the library and through the spanned
    composition, in alternating order, until `deadline`; probe the
    permutation every PROBE_INTERVAL_S."""
    from ascon_aead import permutation

    aead = api.aead
    library_permute = aead.permute
    traced_permute = spanned_permute(tracer, library_permute)
    clock = time.perf_counter
    probe_state = api.State(0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978,
                            0x8796A5B4C3D2E1F0, 0x1122334455667788)
    out = TracedRun()
    cursor = 0
    last_probe = -PROBE_INTERVAL_S
    while True:
        m = messages[cursor % len(messages)]
        params = api.VARIANTS[m.variant]
        tally.attempted += 4
        runs = {}
        for mode in ("untraced", "traced") if cursor % 2 else ("traced", "untraced"):
            try:
                if mode == "traced":
                    aead.permute = traced_permute
                    t0 = clock()
                    ct, tag = traced_encrypt(aead, tracer, params, m)
                    t1 = clock()
                    back = traced_decrypt(aead, tracer, params, m, ct, tag)
                    t2 = clock()
                else:
                    t0 = clock()
                    ct, tag = api.encrypt(params, m.key, m.nonce, m.ad, m.pt)
                    t1 = clock()
                    back = api.decrypt(params, m.key, m.nonce, m.ad, ct, tag)
                    t2 = clock()
            except Exception as exc:
                tally.fail(f"{mode} #{cursor}: {type(exc).__name__}")
                tracer.open.clear()
                continue
            finally:
                aead.permute = library_permute
            if back != m.pt:
                tally.fail(f"{mode} #{cursor}: decrypt did not return the plaintext")
                continue
            runs[mode] = (ct, tag)
            (out.traced if mode == "traced" else out.untraced).extend((t1 - t0, t2 - t1))
        if len(runs) == 2 and runs["traced"] != runs["untraced"]:
            tally.fail(f"traced #{cursor}: output differs from the untraced call")
        out.rounds += [rounds_per_op(params, len(m.ad), len(m.pt))] * 2
        cursor += 1
        now = clock()
        if now - last_probe >= PROBE_INTERVAL_S:
            probe_permutation(permutation, probe_state, out.probes)
            last_probe = clock()
        if cursor % 2 == 0 and now >= deadline:
            return out


def median_time(fn, number: int, repeats: int) -> float:
    """Median over `repeats` of the mean seconds per call of `fn` over `number` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def probe_modules(api, repeats: int, tally: Tally) -> tuple[dict, list[str]]:
    """Time codec, kat, cli and _accel from outside; ({name: (value, unit)}, notes)."""
    from ascon_aead import codec, kat

    tally.attempted += 1
    fixture = api.permute(api.State(api.ASCON_128.iv_word, 0, 0, 0, 0), 12)
    if fixture[0] != 0xB8DFF46B0DB421F8 or fixture[4] != 0xF044217FBE57E755:
        tally.fail("permutation: 12-round fixture differs")

    kib_a, kib_b = bytes(range(256)) * 4, bytes(range(255, -1, -1)) * 4
    hex_kib = kib_a.hex().upper()
    tally.attempted += 1
    if codec.xor_bytes(kib_a, kib_b) != b"\xff" * 1024 or codec.hex_decode(hex_kib) != kib_a:
        tally.fail("codec: xor_bytes or hex_decode gave a wrong result")
    metrics = {
        "codec.xor_us_per_KiB": median_time(lambda: codec.xor_bytes(kib_a, kib_b), 100, repeats),
        "codec.pad_us_per_KiB": median_time(lambda: codec.pad_10star(kib_a, 8), 5000, repeats),
        "codec.hex_decode_us_per_KiB": median_time(lambda: codec.hex_decode(hex_kib), 100, repeats),
    }
    metrics = {name: (1e6 * seconds, "us/KiB") for name, seconds in metrics.items()}

    # One KAT file in process (parse, then run) and through the CLI, in
    # turn, so the CLI's remainder is taken against a contemporaneous run.
    path = kat_file("ascon128")
    text = path.read_text()
    parse, run_, start, overhead = [], [], [], []
    for _ in range(repeats):
        tally.attempted += 2
        t0 = time.perf_counter()
        records = kat.parse_kat_file(text)
        t1 = time.perf_counter()
        report = kat.run_kat(records, api.ASCON_128)
        t2 = time.perf_counter()
        if report.failed or report.passed != 2 * len(records):
            tally.fail(f"kat.run_kat: {report.summary()}")
        proc = subprocess.run([sys.executable, "-m", "ascon_aead.cli", "--version"], cwd=ROOT,
                              env=subprocess_env(), capture_output=True, text=True, timeout=60)
        t3 = time.perf_counter()
        if proc.returncode != 0 or not proc.stdout.startswith("ascon-aead"):
            tally.fail(f"cli --version: exit {proc.returncode}")
        cli_wall = cli_kat("ascon128", path, len(records), tally)
        parse.append(t1 - t0)
        run_.append(t2 - t1)
        start.append(t3 - t2)
        overhead.append(cli_wall - (t2 - t0))
    metrics["kat.parse_ms"] = (1e3 * statistics.median(parse), "ms")
    metrics["kat.run_ms"] = (1e3 * statistics.median(run_), "ms")
    metrics["cli.start_ms"] = (1e3 * statistics.median(start), "ms")
    metrics["cli.overhead_ms"] = (1e3 * statistics.median(overhead), "ms")

    try:
        from ascon_aead import _accel
    except ImportError as exc:
        available, notes = False, [f"accel unavailable: {exc}"]
    else:
        available = bool(getattr(_accel, "HAVE_NUMBA", False))
        notes = [] if available else ["accel unavailable: numba is not importable"]
    metrics["accel.available"] = (float(available), "flag")
    if available:
        zero = api.State(0, 0, 0, 0, 0)
        _accel.encrypt_blocks(zero, bytes(1024), 8, 6)  # compile or load outside the timing
        per_kib = median_time(lambda: _accel.encrypt_blocks(zero, bytes(1024), 8, 6), 100, repeats)
        notes.append(f"accel.encrypt_blocks_us_per_KiB = {1e6 * per_kib!r} us/KiB")
    return metrics, notes


def per_layer_metrics(modules: dict, run: TracedRun, tracer: Tracer) -> dict:
    spans = tracer.durations_ns()
    mean_us = lambda name: statistics.fmean(spans[name]) / 1000 if name in spans else 0.0
    metrics = dict(modules)
    for name, samples in run.probes.items():
        metrics[name] = (1e6 * statistics.median(samples), "us")
    # Per round as the traced operations ran it: permute span time / rounds.
    permute_ns = sum(sum(spans.get(f"permutation.permute{r}", ())) for r in (6, 8, 12))
    rounds_run = sum(r * len(spans.get(f"permutation.permute{r}", ())) for r in (6, 8, 12))
    ns_per_round = permute_ns / rounds_run
    mean_call_us = 1e6 * statistics.fmean(run.untraced)
    mean_rounds = statistics.fmean(run.rounds)
    permutation_us = mean_rounds * ns_per_round / 1000
    metrics.update({
        "permutation.ns_per_round": (ns_per_round, "ns"),
        "permutation.rounds_per_op": (mean_rounds, "count"),
        "permutation.busy_share": (permutation_us / mean_call_us, "ratio"),
        "aead.initialize_us": (mean_us("aead.initialize"), "us"),
        "aead.ad_us": (mean_us("aead.ad"), "us"),
        "aead.encrypt_data_us": (mean_us("aead.encrypt_data"), "us"),
        "aead.decrypt_data_us": (mean_us("aead.decrypt_data"), "us"),
        "aead.finalize_us": (mean_us("aead.finalize"), "us"),
        "aead.overhead_us": (mean_call_us - permutation_us, "us"),
        "trace.overhead_pct": (100 * (sum(run.traced) / sum(run.untraced) - 1), "%"),
    })
    return metrics


# --------------------------------------------------------------------------
# Environment record


def environment(api, seed: int, digest: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    numba = importlib.util.find_spec("numba") is not None
    backend_info = getattr(api, "backend_info", None)
    backend = (backend_info() if backend_info else
               f"no backend_info; numba importable: {'yes' if numba else 'no'}")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": numba,
        "cc": shutil.which("cc") or "none",
        "commit": git_commit(),
        "seed": seed,
        "inputs_sha256": digest,
        "backend": backend,
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


# --------------------------------------------------------------------------
# Main


def load_package():
    if not (SRC / "ascon_aead" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    for variant in VARIANT_NAMES:
        if not kat_file(variant).is_file():
            raise BenchError(f"missing vector file {kat_file(variant)}")
    sys.path.insert(0, str(SRC))
    import ascon_aead

    return ascon_aead


def cli_files(workload: str, api, messages: list[Message], tmp: Path) -> list[tuple]:
    """(variant, KAT file, record count) for the workload's CLI passes."""
    if workload == "kat":
        return [(v, kat_file(v), len(messages) // 2) for v in VARIANT_NAMES]
    per_file = SMALL_CLI_RECORDS if workload == "small" else BULK_CLI_RECORDS
    files = []
    for v in VARIANT_NAMES:
        path = tmp / f"{v}.txt"
        write_kat_file(path, api, [m for m in messages if m.variant == v][:per_file])
        files.append((v, path, per_file))
    return files


def measure_end_to_end(api, workload, messages, seconds, tally, quick) -> tuple[dict, list[str]]:
    gauge = SpeedGauge()
    setups = [setup_seconds(messages[0], tally) * gauge.close_window()
              for _ in range(1 if quick else SETUP_REPEATS)]
    stats = CallStats()
    recorder = Recorder(gauge, stats)
    cli_walls = []
    clock = time.perf_counter
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        files = cli_files(workload, api, messages, Path(tmp))
        cursor = 0
        deadline = clock() + seconds
        while clock() < deadline:
            pass_start = clock()
            scaled = 0.0
            for variant, path, records in files:
                scaled += cli_kat(variant, path, records, tally) * gauge.close_window()
            cli_walls.append(scaled)
            slice_end = min(deadline, clock() + LIBRARY_SHARE * (clock() - pass_start))
            # Messages alternate between the variants; ending a slice only at
            # an even cursor gives both the same number of messages, and at
            # least one each.
            recorder.start = clock()
            while clock() < slice_end or cursor % 2 or cursor == 0:
                round_trip(api, messages[cursor % len(messages)], cursor, recorder, tally)
                cursor += 1
            recorder.flush()
    calls = sum(len(s) for s in stats.seconds.values())
    notes = [
        f"samples: {calls} library calls, {len(cli_walls)} CLI passes, {len(setups)} set-ups",
        f"speed factor (times are wall times x factor): median {statistics.median(gauge.factors)!r},"
        f" range {min(gauge.factors)!r}..{max(gauge.factors)!r} over {len(gauge.factors)} windows",
    ]
    return end_to_end_metrics(stats, cli_walls, setups), notes


def measure_per_layer(api, messages, seconds, tally, quick, spans_path: Path) -> tuple[dict, list[str]]:
    tracer = Tracer()
    traced = run_traced(api, messages, time.perf_counter() + seconds, tracer, tally)
    modules, notes = probe_modules(api, 1 if quick else KAT_PROBE_REPEATS, tally)
    tracer.write(spans_path)
    for name, ns in sorted(tracer.self_times_ns().items()):
        notes.append(f"self time {name}: mean {statistics.fmean(ns) / 1000!r} us over {len(ns)} spans")
    return per_layer_metrics(modules, traced, tracer), notes


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    api = load_package()
    messages = make_messages(workload, seed)
    env = environment(api, seed, inputs_digest(messages))
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    check_golden(api, tally, json.loads(GOLDEN_FILE.read_text()))
    if trace:
        metrics, notes = measure_per_layer(api, messages, seconds, tally, quick,
                                           OUT_DIR / f"spans-{tag}.jsonl")
    else:
        metrics, notes = measure_end_to_end(api, workload, messages, seconds, tally, quick)
    result = {
        "workload": workload,
        "env": env,
        "fail_ratio": tally.failed / tally.attempted,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one repeat of each set-up and layer probe (for the schema test)")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, value in result["env"].items():
        print(f"env {key}: {value}")
    for line in result["notes"] + [f"failure: {n}" for n in result["failures"]]:
        print(line)
    print(f"metric fail_ratio = {result['fail_ratio']!r} ratio")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
