"""Tests of the benchmark itself: cost model, failure accounting, output schema.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

api = bench.load_package()
from ascon_aead import aead  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
PARAMS = [aead.ASCON_128, aead.ASCON_128A]


@pytest.fixture
def counted_permute(monkeypatch):
    """Pure path, with every call into aead.permute recorded by round count."""
    calls = []
    real = aead.permute

    def counting(state, rounds=12):
        calls.append(rounds)
        return real(state, rounds)

    monkeypatch.setattr(aead, "_accel_backend", False)
    monkeypatch.setattr(aead, "permute", counting)
    return calls


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_cost_model_matches_permute_calls(params, counted_permute):
    r = params.rate_bytes
    lengths = sorted({0, 1, r - 1, r, r + 1, 2 * r, 3 * r + 5, 4 * r})
    key, nonce = bytes(range(16)), bytes(range(16, 32))
    for ad_len in lengths:
        for pt_len in lengths:
            ad, pt = bytes(ad_len), bytes(range(pt_len))
            calls_a, calls_b = bench.permutation_calls(params, ad_len, pt_len)
            expected = [params.rounds_a] * calls_a + [params.rounds_b] * calls_b
            for direction in ("encrypt", "decrypt"):
                counted_permute.clear()
                if direction == "encrypt":
                    ct, tag = aead.encrypt(params, key, nonce, ad, pt)
                else:
                    aead.decrypt(params, key, nonce, ad, ct, tag)
                assert sorted(counted_permute) == sorted(expected), (direction, ad_len, pt_len)
                assert sum(counted_permute) == bench.rounds_per_op(params, ad_len, pt_len)


class CorruptingApi:
    """The package's API, except that encrypt flips one ciphertext byte."""

    VARIANTS = api.VARIANTS
    AuthenticationFailure = api.AuthenticationFailure
    decrypt = staticmethod(api.decrypt)

    @staticmethod
    def encrypt(params, key, nonce, ad, pt):
        ct, tag = api.encrypt(params, key, nonce, ad, pt)
        if ct:
            ct = bytes([ct[0] ^ 0x01]) + ct[1:]
        return ct, tag


class TagIgnoringApi(CorruptingApi):
    """Encrypts correctly but accepts any tag on decrypt."""

    encrypt = staticmethod(api.encrypt)

    @staticmethod
    def decrypt(params, key, nonce, ad, ct, tag):
        state = aead.initialize(params, key, nonce)
        state = aead.process_associated_data(state, params, ad)
        return aead.decrypt_data(state, params, ct)[1]


def messages_with_plaintext(count):
    return [m for m in bench.make_messages("small", 7) if m.pt][:count]


def drive(api_, messages):
    """Round-trip each message once through the benchmark's closed loop."""
    tally, samples = bench.Tally(), []
    for index, m in enumerate(messages):
        bench.round_trip(api_, m, index, lambda *sample: samples.append(sample), tally)
    return tally, samples


def test_faithful_api_has_no_failures():
    tally, samples = drive(api, messages_with_plaintext(2 * bench.TAMPER_EVERY))
    bench.check_golden(api, tally, json.loads(bench.GOLDEN_FILE.read_text()))
    assert tally.failed == 0, tally.notes
    assert len(samples) == 4 * bench.TAMPER_EVERY


def test_corrupted_ciphertext_byte_counts_as_failure():
    messages = messages_with_plaintext(4)
    tally, _ = drive(CorruptingApi, messages)
    # each decrypt of a corrupted ciphertext fails authentication
    assert tally.failed == len(messages)
    golden = bench.Tally()
    bench.check_golden(CorruptingApi, golden, json.loads(bench.GOLDEN_FILE.read_text()))
    assert golden.failed > 0


def test_accepted_forgery_counts_as_failure():
    tally, _ = drive(TagIgnoringApi, messages_with_plaintext(1))
    assert tally.failed == 1 and "flipped tag" in tally.notes[0]


def test_inputs_depend_only_on_workload_and_seed():
    for workload in bench.WORKLOADS:
        first = bench.inputs_digest(bench.make_messages(workload, 3))
        assert first == bench.inputs_digest(bench.make_messages(workload, 3))
        assert first != bench.inputs_digest(bench.make_messages(workload, 4))


def test_small_inputs_stay_below_the_kernel_threshold():
    for m in bench.make_messages("small", 1):
        rate = api.VARIANTS[m.variant].rate_bytes
        assert max(len(m.pt), len(m.ad)) // rate + 1 < aead._ACCEL_MIN_BLOCKS


def test_golden_cases_include_long_inputs():
    digests = json.loads(bench.GOLDEN_FILE.read_text())
    cases = bench.golden_messages()
    assert set(digests) == set(cases)
    for variant in bench.VARIANT_NAMES:
        rate = api.VARIANTS[variant].rate_bytes
        longest = max(len(m.pt) for m in cases.values() if m.variant == variant)
        assert longest // rate > aead._ACCEL_MIN_BLOCKS


def test_self_time_subtracts_children():
    tracer = bench.Tracer()
    tracer.spans = [["op", 0, 100, -1, 1], ["phase", 10, 70, 0, 1], ["permute", 20, 60, 1, 1]]
    own = tracer.self_times_ns()
    assert own == {"op": [40], "phase": [20], "permute": [40]}


def run_bench(*args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_quick_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)
    if trace and result["metrics"]["accel.available"]["value"] == 0:
        assert any(line.startswith("accel unavailable: ") for line in lines)
    for line in ("env backend: ", "env inputs_sha256: ", "env commit: ", "metric fail_ratio = 0.0"):
        assert any(out.startswith(line) for out in lines), line


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "small", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
