"""Known-answer-test file parsing and bidirectional verification.

Reads the NIST LWC AEAD vector format: blank-line-separated blocks of

    Count = 1
    Key = 000102030405060708090A0B0C0D0E0F
    Nonce = 000102030405060708090A0B0C0D0E0F
    PT =
    AD =
    CT = E355159F292911F794CB1432A0103A8A

where CT holds ciphertext || 16-byte tag.  Verification runs every record
in both directions: encrypt must reproduce CT exactly, decrypt must accept
the tag and reproduce PT.  Failures are data in the report, not exceptions.
"""

from __future__ import annotations

from collections import namedtuple

from . import aead
from .codec import HexError, hex_decode

_HEX_FIELDS = ("Key", "Nonce", "PT", "AD", "CT")
_ALL_FIELDS = ("Count",) + _HEX_FIELDS


class KatParseError(ValueError):
    """Malformed KAT text; `line_number` is 1-based."""

    def __init__(self, message: str, line_number: int) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class KatRecord(namedtuple("KatRecord", "count key nonce pt ad ct_and_tag")):
    """One test vector; ct_and_tag is the raw CT field (ciphertext || tag)."""

    __slots__ = ()

    @property
    def ciphertext(self) -> bytes:
        return self.ct_and_tag[: -aead.TAG_BYTES]

    @property
    def tag(self) -> bytes:
        return self.ct_and_tag[-aead.TAG_BYTES :]


class KatFailure(namedtuple("KatFailure", "count direction field")):
    """One failed direction of one record.

    direction is "encrypt" or "decrypt"; field is the first divergent
    field: "CT", "TAG", or "PT".
    """

    __slots__ = ()

    def line(self) -> str:
        return f"FAIL count={self.count} dir={self.direction} field={self.field}"


class KatReport(namedtuple("KatReport", "total passed failed failures")):
    """Aggregate over both directions: passed + failed == 2 * total.

    failures is a tuple of KatFailure.
    """

    __slots__ = ()

    def summary(self) -> str:
        return f"total={self.total} passed={self.passed} failed={self.failed}"

    def lines(self) -> list[str]:
        """Machine-readable failure lines followed by the summary."""
        return [f.line() for f in self.failures] + [self.summary()]


def _finish_record(
    fields: dict[str, bytes | int], prev_count: int, line_number: int
) -> KatRecord:
    for name in _ALL_FIELDS:
        if name not in fields:
            raise KatParseError(f"record is missing field {name}", line_number)
    count = fields["Count"]
    if count <= prev_count:
        raise KatParseError(
            f"counts must increase: {count} after {prev_count}", line_number
        )
    record = KatRecord(
        count, fields["Key"], fields["Nonce"], fields["PT"], fields["AD"], fields["CT"]
    )
    if len(record.key) != aead.KEY_BYTES:
        raise KatParseError(f"record {count}: key must be {aead.KEY_BYTES} bytes", line_number)
    if len(record.nonce) != aead.NONCE_BYTES:
        raise KatParseError(f"record {count}: nonce must be {aead.NONCE_BYTES} bytes", line_number)
    if len(record.ct_and_tag) != len(record.pt) + aead.TAG_BYTES:
        raise KatParseError(
            f"record {count}: CT must be {len(record.pt) + aead.TAG_BYTES} bytes"
            f" (PT plus tag), got {len(record.ct_and_tag)}",
            line_number,
        )
    return record


def parse_kat_file(text: str) -> list[KatRecord]:
    """Parse KAT text into records, in file order.

    Tolerates spaces around '=' and empty hex values; rejects unknown or
    duplicated fields, bad hex, missing fields, non-increasing counts, and
    per-record length violations, always naming the offending line.
    """
    records: list[KatRecord] = []
    fields: dict[str, bytes | int] = {}
    prev_count = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if fields:
                records.append(_finish_record(fields, prev_count, line_number))
                prev_count = records[-1].count
                fields = {}
            continue
        name, eq, value = line.partition("=")
        if not eq:
            raise KatParseError(f"expected 'Field = value', got {line!r}", line_number)
        name = name.strip()
        value = value.strip()
        if name == "Count" and fields:
            # block separator line was dropped; close the previous record
            records.append(_finish_record(fields, prev_count, line_number))
            prev_count = records[-1].count
            fields = {}
        if name not in _ALL_FIELDS:
            raise KatParseError(f"unknown field {name!r}", line_number)
        if name in fields:
            raise KatParseError(f"duplicate field {name!r}", line_number)
        if name == "Count":
            try:
                fields[name] = int(value)
            except ValueError:
                raise KatParseError(f"invalid count {value!r}", line_number) from None
        else:
            try:
                fields[name] = hex_decode(value)
            except HexError as exc:
                raise KatParseError(f"bad hex in {name}: {exc}", line_number) from None
    if fields:
        records.append(_finish_record(fields, prev_count, line_number))
    if records and records[0].count != 1:
        raise KatParseError(f"counts must start at 1, got {records[0].count}", 1)
    return records


def run_kat(records: list[KatRecord], params: aead.VariantParams) -> KatReport:
    """Verify every record in both directions against the given variant.

    Records are never mutated; rerunning yields an identical report.  Each
    failure names the first divergent field: CT or TAG for the encrypt
    direction, TAG (rejected) or PT (wrong output) for decrypt.
    """
    failures: list[KatFailure] = []
    passed = 0
    for rec in sorted(records, key=lambda r: r.count):
        ct, tag = aead.encrypt(params, rec.key, rec.nonce, rec.ad, rec.pt)
        if ct + tag == rec.ct_and_tag:
            passed += 1
        else:
            field = "CT" if ct != rec.ciphertext else "TAG"
            failures.append(KatFailure(rec.count, "encrypt", field))
        try:
            pt = aead.decrypt(
                params, rec.key, rec.nonce, rec.ad, rec.ciphertext, rec.tag
            )
        except aead.AuthenticationFailure:
            failures.append(KatFailure(rec.count, "decrypt", "TAG"))
        else:
            if pt == rec.pt:
                passed += 1
            else:
                failures.append(KatFailure(rec.count, "decrypt", "PT"))
    return KatReport(len(records), passed, len(failures), tuple(failures))
