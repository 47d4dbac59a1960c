import random

import pytest

from ascon_aead import _accel, aead, kat
from ascon_aead.aead import ASCON_128, ASCON_128A
from ascon_aead.codec import hex_encode
from ascon_aead.kat import KatParseError, KatRecord, KatReport, parse_kat_file, run_kat

from conftest import PORTABLE_BODY, VARIANT_NAMES, accel_available, kat_path, run_selftest
from mutants import BUG_MUTANTS, KAT_HEAD, KERNEL_MUTANTS, UNCOMPLEMENTED_K2, use_kernel_mutant
from oracles import serialize_records

WELL_FORMED = """\
Count = 1
Key = 000102030405060708090A0B0C0D0E0F
Nonce = 000102030405060708090A0B0C0D0E0F
PT =
AD =
CT = E355159F292911F794CB1432A0103A8A

Count = 2
Key = 000102030405060708090A0B0C0D0E0F
Nonce = 000102030405060708090A0B0C0D0E0F
PT = 00
AD =
CT = BC18C3F4E39ECA7222490D967C79BFFC92

"""


class TestParser:
    def test_two_blocks_in_order(self):
        records = parse_kat_file(WELL_FORMED)
        assert [r.count for r in records] == [1, 2]
        assert records[0].pt == records[0].ad == b""
        assert len(records[0].ct_and_tag) == 16
        assert records[1].pt == b"\x00"
        assert records[1].ciphertext == records[1].ct_and_tag[:1]
        assert records[1].tag == records[1].ct_and_tag[1:]

    def test_empty_text(self):
        assert parse_kat_file("") == []
        assert parse_kat_file("\n\n\n") == []

    def test_spaces_around_equals_tolerated(self):
        text = WELL_FORMED.replace(" = ", "=").replace("Count=1", "Count   =   1")
        records = parse_kat_file(text)
        assert [r.count for r in records] == [1, 2]

    def test_missing_final_blank_line(self):
        records = parse_kat_file(WELL_FORMED.rstrip("\n"))
        assert len(records) == 2

    def test_trailing_space_after_equals(self):
        # official files write "PT = " even for empty values
        text = WELL_FORMED.replace("PT =\n", "PT = \n").replace("AD =\n", "AD = \n")
        assert parse_kat_file(text) == parse_kat_file(WELL_FORMED)

    def test_missing_separator_between_blocks(self):
        squeezed = WELL_FORMED.replace("\n\nCount = 2", "\nCount = 2")
        assert [r.count for r in parse_kat_file(squeezed)] == [1, 2]

    def test_official_files_parse(self, kat_records):
        for name, records in kat_records.items():
            assert len(records) == 1089
            assert [r.count for r in records] == list(range(1, 1090))
            assert all(len(r.ct_and_tag) == len(r.pt) + 16 for r in records)

    def test_serialize_parse_round_trip(self, kat_records):
        sample = kat_records["ascon128"][:40]
        assert parse_kat_file(serialize_records(sample)) == sample

    @pytest.mark.parametrize(
        "mangle,expected",
        [
            (lambda t: t.replace("Key = ", "Key ", 1), "expected 'Field = value'"),
            (lambda t: t.replace("Count = 1", "Count = one", 1), "invalid count"),
            # int() takes all three as 1; a count is ASCII decimal digits only
            (lambda t: t.replace("Count = 1", "Count = 0_1", 1), "invalid count '0_1'"),
            (lambda t: t.replace("Count = 1", "Count = +1", 1), "invalid count '+1'"),
            (lambda t: t.replace("Count = 1", "Count = \u0661", 1), "invalid count '\u0661'"),
            # more digits than int() converts from text (4300 by default)
            (lambda t: t.replace("Count = 1", "Count = 1" + "0" * 5000, 1),
             "line 1: invalid count of 5001 digits"),
            (lambda t: t.replace("Nonce = 00", "Nonce = 0G", 1), "bad hex in Nonce"),
            (lambda t: t.replace("AD =\n", "AD = 0\n", 1), "bad hex in AD"),
            (lambda t: t.replace("PT =\n", "Spam =\n", 1), "unknown field"),
            (lambda t: t.replace("AD =\n", "AD =\nAD =\n", 1), "duplicate field"),
            (lambda t: t.replace("PT =\n", "", 1), "missing field PT"),
            (lambda t: t.replace("Count = 2", "Count = 9", 1), None),
            (lambda t: t.replace("0E0F\nPT", "0E\nPT", 1), "record 1: nonce must be 16 bytes"),
        ],
    )
    def test_malformed_text_raises_with_line_number(self, mangle, expected):
        text = mangle(WELL_FORMED)
        if expected is None:
            parse_kat_file(text)  # renumbering upward stays strictly increasing
            return
        with pytest.raises(KatParseError) as info:
            parse_kat_file(text)
        assert expected in str(info.value)
        assert "line" in str(info.value)
        assert info.value.line_number >= 1

    @pytest.mark.parametrize(
        "text,line_number",
        [
            # record 1 ends at the blank line after it
            (WELL_FORMED.replace("PT =\n", "", 1), 6),
            # record 1 ends at the next Count line, with no blank line before it
            (WELL_FORMED.replace("PT =\n", "", 1).replace("\n\nCount = 2", "\nCount = 2"), 6),
            # record 2 ends at the end of the text, at the last line's number
            (WELL_FORMED.replace("PT = 00\n", "").rstrip("\n"), 12),
            (WELL_FORMED.replace("PT = 00\n", "").rstrip("\n") + "\n", 12),
            # record 2 ends at the blank line that ends the text
            (WELL_FORMED.replace("PT = 00\n", ""), 13),
        ],
    )
    def test_each_record_end_reports_its_line(self, text, line_number):
        with pytest.raises(KatParseError) as info:
            parse_kat_file(text)
        assert str(info.value) == f"line {line_number}: record is missing field PT"
        assert info.value.line_number == line_number

    @pytest.mark.parametrize(
        "char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_line(self, char):
        # str.splitlines breaks at each of these; a KAT line ends at \n, \r\n or \r
        text = WELL_FORMED.replace("Count = 1\n", f"Count = 1{char}\n")
        assert parse_kat_file(text) == parse_kat_file(WELL_FORMED)
        with pytest.raises(KatParseError, match="^line 11: bad hex in PT"):
            parse_kat_file(text.replace("PT = 00", "PT = 0"))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_end_a_line(self, newline):
        assert parse_kat_file(WELL_FORMED.replace("\n", newline)) == parse_kat_file(WELL_FORMED)

    def test_counts_must_start_at_one(self):
        # the error names the first record's Count line, wherever it is
        for prefix, line_number in (("", 1), ("\n\n", 3)):
            text = prefix + WELL_FORMED.replace("Count = 1", "Count = 3", 1)
            with pytest.raises(KatParseError, match="counts must start at 1, got 3") as info:
                parse_kat_file(text)
            assert info.value.line_number == line_number

    def test_counts_must_increase(self):
        text = WELL_FORMED.replace("Count = 2", "Count = 1")
        with pytest.raises(KatParseError, match="counts must increase"):
            parse_kat_file(text)

    def test_short_ct_field_rejected(self):
        text = WELL_FORMED.replace("CT = E355159F292911F794CB1432A0103A8A", "CT = E355")
        with pytest.raises(KatParseError, match="record 1: CT must be"):
            parse_kat_file(text)

    def test_bad_key_length_rejected(self):
        text = WELL_FORMED.replace("Key = 000102030405060708090A0B0C0D0E0F", "Key = 00", 1)
        with pytest.raises(KatParseError, match="key must be 16 bytes"):
            parse_kat_file(text)


def parse_outcome(parse, text):
    """The records `parse` gives for `text`, or its KatParseError as (type, message, line)."""
    try:
        return parse(text)
    except KatParseError as exc:
        return type(exc), str(exc), exc.line_number


def _edit_one_line(rng: random.Random, lines: list[str]) -> None:
    """Apply one edit of the kinds a hand-edited KAT file shows, in place."""
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.choice(("squeeze", "pad", "delete", "G", "blank", "rename", "swap", "duplicate",
                       "formfeed", "lowercase"))
    if kind == "squeeze":
        lines[i] = line.replace(" = ", "=")
    elif kind == "pad":
        lines[i] = rng.choice((" " + line, line + " ", "\t" + line + "  "))
    elif kind == "delete" and line:
        j = rng.randrange(len(line))
        lines[i] = line[:j] + line[j + 1 :]
    elif kind == "G":
        lines[i] = line + "G"
    elif kind == "blank":
        lines[i] = ""
    elif kind == "rename":
        _, eq, value = line.partition(" =")
        lines[i] = rng.choice(("Count", "Key", "Nonce", "PT", "AD", "CT", "Tag")) + eq + value
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], line
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "formfeed":
        lines[i] = "\f" + line
    elif kind == "lowercase":
        lines[i] = _lowercase_values(line)


def edited_files(count: int, seed: int) -> list[str]:
    """`count` texts, each the first 60 or 63 lines of the ASCON-128 file
    after 1-3 line edits, with LF, CRLF or CR line ends.  63 lines end at a
    blank line after record 9; 60 cut record 9 short."""
    rng = random.Random(seed)
    head = kat_path("ascon128").read_text().split("\n")[:63]
    texts = []
    for _ in range(count):
        lines = head[: rng.choice((60, 63))]
        for _ in range(rng.randint(1, 3)):
            _edit_one_line(rng, lines)
        newline = rng.choice(("\n", "\r\n", "\r"))
        texts.append(newline.join(lines) + newline)
    return texts


def _lowercase_values(text: str) -> str:
    return "\n".join(name + eq + value.lower()
                     for name, eq, value in (line.partition("=") for line in text.split("\n")))


#: Records 1 and 2 of the ASCON-128 file, in the generator's layout.
GENERATED = "\n".join(kat_path("ascon128").read_text().split("\n")[:14]) + "\n"
THREE_RECORDS = GENERATED + GENERATED.replace("Count = 1", "Count = 3").split("\n\n")[0] + "\n\n"
KEY_LINE = "Key = 000102030405060708090A0B0C0D0E0F"


class TestSplitAgreesWithLineLoop:
    """parse_kat_file splits text in the generator's layout in one regex
    pass and hands all other text to the line loop, `kat._parse_lines`; on
    any text both give the same records, or the same error at the same line."""

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bundled_file(self, variant, newline):
        text = kat_path(variant).read_text().replace("\n", newline)
        records = parse_kat_file(text)
        assert len(records) == 1089
        assert records == kat._parse_lines(text)

    @pytest.mark.parametrize(
        "text",
        [
            GENERATED,
            _lowercase_values(GENERATED),
            GENERATED.replace(KEY_LINE, KEY_LINE[:-1], 1),
            GENERATED.replace(KEY_LINE, KEY_LINE[:-2], 1),
            GENERATED.replace("Nonce" + KEY_LINE[3:], "Nonce" + KEY_LINE[3:-2], 1),
            GENERATED.replace(KEY_LINE, KEY_LINE[:-16] + " " + KEY_LINE[-16:], 1),
            GENERATED.replace(KEY_LINE, KEY_LINE[:-16] + "\t" + KEY_LINE[-16:], 1),
            GENERATED.replace(KEY_LINE, KEY_LINE + "\x0b", 1),
            GENERATED.replace(KEY_LINE + "\n", KEY_LINE + "\r\n", 1),
            GENERATED.replace("CT = E355159F292911F794CB1432A0103A8A", "CT = E355159F29", 1),
            GENERATED.replace("Count = 1", "Count = 1" + "0" * 4300, 1),
            GENERATED.replace("Count = 1", "Count = 01", 1),
            GENERATED.replace("Count = 1", "Count = 0", 1),
            GENERATED.replace("Count = 2", "Count = 1", 1),
            THREE_RECORDS,
            THREE_RECORDS.replace("Count = 2", "Count = 4", 1),
            GENERATED.replace("\n\nCount = 2", "\n\n\nCount = 2", 1),
            GENERATED.replace("\n\nCount = 2", "\nCount = 2", 1),
            GENERATED.rstrip("\n"),
            GENERATED.rstrip("\n") + "\n",
            GENERATED + "\n",
            "",
            "\n",
        ],
        ids=["as-generated", "lowercase-hex", "odd-key", "short-key", "short-nonce", "space-in-key",
             "tab-in-key", "key-ends-in-vt",
             "one-crlf", "odd-ct", "count-4301-digits", "count-01", "count-0",
             "count-repeated", "counts-1-2-3", "counts-1-4-3", "two-blank-lines",
             "no-blank-line", "no-final-newline", "no-final-blank-line",
             "two-final-blank-lines", "empty", "one-blank-line"],
    )
    def test_edge_case(self, text):
        assert parse_outcome(parse_kat_file, text) == parse_outcome(kat._parse_lines, text)

    def test_edited_files(self):
        for text in edited_files(300, seed=31):
            assert parse_outcome(parse_kat_file, text) == parse_outcome(kat._parse_lines, text)


def _refuse_line_loop(text):
    raise AssertionError("parse_kat_file fell back to the line loop")


class TestGeneratedLayoutTakesTheSplit:
    """Files as the NIST generator and the benchmark write them never reach
    the line loop, so a change that drops them to it fails here."""

    def test_bundled_files(self, monkeypatch):
        texts = [kat_path(variant).read_text() for variant in VARIANT_NAMES]
        expected = [kat._parse_lines(text) for text in texts]
        monkeypatch.setattr(kat, "_parse_lines", _refuse_line_loop)
        assert [parse_kat_file(text) for text in texts] == expected

    @pytest.mark.parametrize("shape", ["128 short records", "one 64 KiB record"])
    def test_benchmark_layout(self, shape, monkeypatch):
        rng = random.Random(shape)
        sizes = [(rng.randrange(65), rng.randrange(33)) for _ in range(128)]
        records = []
        for count, (pt_len, ad_len) in enumerate(
            sizes if shape == "128 short records" else [(65536, 16)], start=1
        ):
            key, nonce, pt, ad = (rng.randbytes(n) for n in (16, 16, pt_len, ad_len))
            ct, tag = aead.encrypt(ASCON_128, key, nonce, ad, pt)
            records.append(KatRecord(count, key, nonce, pt, ad, ct + tag))
        # bench/run.py's write_kat_file writes no blank line after the last record
        text = serialize_records(records).removesuffix("\n")
        assert text.endswith("\n") and not text.endswith("\n\n")
        monkeypatch.setattr(kat, "_parse_lines", _refuse_line_loop)
        assert parse_kat_file(text) == records


class TestRecordTypes:
    def test_parsed_record_equals_hand_built_one(self):
        key = nonce = bytes(range(16))
        ct_and_tag = bytes.fromhex("BC18C3F4E39ECA7222490D967C79BFFC92")
        record = KatRecord(2, key, nonce, b"\x00", b"", ct_and_tag)
        assert parse_kat_file(WELL_FORMED)[1] == record
        assert record.ciphertext == b"\xbc"
        assert record.tag == ct_and_tag[1:]
        assert len(record.tag) == 16

    def test_record_is_immutable(self):
        record = parse_kat_file(WELL_FORMED)[0]
        with pytest.raises(AttributeError):
            record.key = bytes(16)
        with pytest.raises(AttributeError):
            record.extra = 1  # no per-instance attributes
        assert record.key == bytes(range(16))


class TestRunKat:
    def test_official_vectors_all_pass(self, kat_records):
        for name, params in (("ascon128", ASCON_128), ("ascon128a", ASCON_128A)):
            report = run_kat(kat_records[name], params)
            assert report.failed == 0
            assert report.passed == 2 * report.total == 2 * len(kat_records[name])
            assert report.failures == ()
            assert report.summary() == f"total={report.total} passed={report.passed} failed=0"

    def test_empty_record_list(self):
        report = run_kat([], ASCON_128)
        assert (report.total, report.passed, report.failed) == (0, 0, 0)
        assert report.lines() == ["total=0 passed=0 failed=0"]

    def test_rerun_is_identical(self, kat_records):
        sample = kat_records["ascon128"][:25]
        assert run_kat(sample, ASCON_128) == run_kat(sample, ASCON_128)

    def _corrupt(self, record: KatRecord, index: int) -> KatRecord:
        blob = bytearray(record.ct_and_tag)
        blob[index] ^= 0x01
        return KatRecord(
            record.count, record.key, record.nonce, record.pt, record.ad, bytes(blob)
        )

    def test_corrupt_ciphertext_names_ct(self, kat_records):
        good = kat_records["ascon128"][40]  # non-empty PT
        assert len(good.ciphertext) > 0
        report = run_kat([self._corrupt(good, 0)], ASCON_128)
        assert report.failed == 2  # encrypt mismatch and decrypt rejection
        fields = {(f.direction, f.field) for f in report.failures}
        assert fields == {("encrypt", "CT"), ("decrypt", "TAG")}

    def test_corrupt_tag_names_tag(self, kat_records):
        good = kat_records["ascon128"][0]
        report = run_kat([self._corrupt(good, len(good.ct_and_tag) - 1)], ASCON_128)
        fields = {(f.direction, f.field) for f in report.failures}
        assert fields == {("encrypt", "TAG"), ("decrypt", "TAG")}

    def test_failure_lines_are_machine_readable(self, kat_records):
        good = kat_records["ascon128"][0]
        report = run_kat([self._corrupt(good, 0)], ASCON_128)
        assert report.lines()[0] == "FAIL count=1 dir=encrypt field=TAG"

    def test_report_derives_passed_and_failed_from_its_failures(self, kat_records):
        assert KatReport._fields == ("total", "failures")
        records = kat_records["ascon128"][:3]
        report = run_kat([self._corrupt(records[0], 0)] + records[1:], ASCON_128)
        assert report.total == 3
        assert report.failed == len(report.failures) == 2
        assert report.passed == 4
        assert report.summary() == "total=3 passed=4 failed=2"

    def test_wrong_plaintext_names_pt(self, kat_records, monkeypatch):
        good = kat_records["ascon128"][40]  # non-empty PT
        wrong = bytes([good.pt[0] ^ 1]) + good.pt[1:]
        monkeypatch.setattr(aead, "decrypt", lambda *args: wrong)
        report = run_kat([good], ASCON_128)
        assert report.lines()[0] == f"FAIL count={good.count} dir=decrypt field=PT"
        assert report.failed == 1

    def test_wrong_variant_fails_loudly(self, kat_records):
        report = run_kat(kat_records["ascon128"][:3], ASCON_128A)
        assert report.failed > 0


class TestBugLedgerMutants:
    """Every catalogued implementation bug must be caught by the first KAT
    record it can affect, and by `selftest`.  The mutants patch the Python
    modules, so they run on the reference path."""

    @pytest.mark.parametrize("name", sorted(BUG_MUTANTS))
    def test_mutant_is_detected(self, name, kat_records, monkeypatch, capsys, pure_path):
        apply_bug, earliest = BUG_MUTANTS[name]
        head = kat_records["ascon128"][:KAT_HEAD]
        assert run_kat(head, ASCON_128).failed == 0, "sanity: clean build passes"
        apply_bug(monkeypatch)
        report = run_kat(head, ASCON_128)
        assert report.failed > 0, f"mutant not detected: {name}"
        assert any(
            f.count == earliest and f.direction == "encrypt" for f in report.failures
        ), f"mutant {name!r} missed by record {earliest}"
        assert min(f.count for f in report.failures) == earliest, f"{name!r} diverges earlier"
        rc, failed = run_selftest(capsys)
        assert rc == 5 and failed, f"selftest missed mutant {name!r}"

    @pytest.mark.parametrize("name", sorted(BUG_MUTANTS))
    def test_mutant_detected_on_128a_too(self, name, kat_records, monkeypatch, pure_path):
        apply_bug, _ = BUG_MUTANTS[name]
        head = kat_records["ascon128a"][:KAT_HEAD]
        apply_bug(monkeypatch)
        assert run_kat(head, ASCON_128A).failed > 0


#: name -> (edit of _accel.c, earliest KAT count whose CT must diverge): each
#: kernel mutant with its twin's count, and the one with no twin.
KERNEL_CASES = {name: (edit, BUG_MUTANTS[name][1]) for name, edit in KERNEL_MUTANTS.items()}
KERNEL_CASES["uncomplemented k2"] = (UNCOMPLEMENTED_K2, 1)


@pytest.mark.skipif(
    not accel_available(), reason="the compiled C kernel could not be built or loaded"
)
@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_mutant_is_detected(name, kat_records, monkeypatch, capsys, tmp_path,
                                   fresh_loader):
    """A bug compiled into the kernel fails the same KAT record as its Python twin, if any."""
    edit, earliest = KERNEL_CASES[name]
    use_kernel_mutant(monkeypatch, tmp_path, edit)
    report = run_kat(kat_records["ascon128"][:KAT_HEAD], ASCON_128)
    info = aead.backend_info()
    assert info["backend"] == "kernel", info["unavailable_reason"]
    assert info["library"].startswith(str(tmp_path / "cache"))
    assert any(
        f.count == earliest and f.direction == "encrypt" for f in report.failures
    ), f"kernel mutant {name!r} missed by record {earliest}"
    assert min(f.count for f in report.failures) == earliest, f"{name!r} diverges earlier"
    rc, failed = run_selftest(capsys)
    assert rc == 5 and failed, f"selftest missed kernel mutant {name!r}"


@pytest.mark.skipif(
    not accel_available(), reason="the compiled C kernel could not be built or loaded"
)
def test_portable_kernel_body_passes_both_kat_files(kat_records, monkeypatch, capsys, tmp_path,
                                                    fresh_loader):
    """The baseline body, which the loader passes over on an x86-64-v3 CPU, meets every vector."""
    from pathlib import Path

    monkeypatch.setattr(_accel, "_CFLAGS", (*_accel._CFLAGS, PORTABLE_BODY))
    monkeypatch.setattr(_accel, "_CACHE_DIR", tmp_path / "cache")
    for name, params in (("ascon128", ASCON_128), ("ascon128a", ASCON_128A)):
        report = run_kat(kat_records[name], params)
        assert report.failures == ()
        assert report.passed == 2 * len(kat_records[name])
    info = aead.backend_info()
    assert info["backend"] == "kernel", info["unavailable_reason"]
    assert info["library"].startswith(str(tmp_path / "cache"))
    assert b"arch_x86_64_v3" not in Path(info["library"]).read_bytes()
    assert run_selftest(capsys) == (0, [])


def test_kernel_mutants_cover_every_bug_class():
    assert sorted(KERNEL_MUTANTS) == sorted(BUG_MUTANTS)


def test_record_1_matches_published_value(kat_records):
    # the widely circulated first vector of the official ASCON-128 file
    record = kat_records["ascon128"][0]
    assert hex_encode(record.ct_and_tag) == "E355159F292911F794CB1432A0103A8A"
    assert record.pt == record.ad == b""
