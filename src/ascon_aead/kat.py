"""Known-answer-test file parsing and bidirectional verification.

Reads the NIST LWC AEAD vector format: blank-line-separated blocks of

    Count = 1
    Key = 000102030405060708090A0B0C0D0E0F
    Nonce = 000102030405060708090A0B0C0D0E0F
    PT =
    AD =
    CT = E355159F292911F794CB1432A0103A8A

where CT holds ciphertext || 16-byte tag.  A record also ends at the next
Count line or at the end of the text.  Text laid out exactly as the NIST
generator writes it (as above, with \n line ends and one blank line after
each record) is parsed by one regex split; all other text goes to a loop
over its lines, which raises every KatParseError.  Verification runs every
record in both directions: encrypt must reproduce CT exactly, decrypt must
accept the tag and reproduce PT.  Failures are data in the report, not
exceptions.
"""

import io
import re
from binascii import a2b_hex
from collections import namedtuple
from itertools import chain

from . import aead
from .codec import HexError, hex_decode

_ALL_FIELDS = ("Count", "Key", "Nonce", "PT", "AD", "CT")

#: One record as the generator writes it; a split on it gives 7 strings per
#: record: the text before it, then its six fields.  A field is any text, as
#: a hex class matched a 64 KiB PT slower than the line loop parses it.  It
#: is compiled on first use, in re's cache, so the CLI commands that parse
#: no KAT file do not pay for it.
_GENERATED_RECORD = (
    r"Count = ([0-9]+)\nKey = ([^\n]*)\nNonce = ([^\n]*)\nPT = ([^\n]*)\n"
    r"AD = ([^\n]*)\nCT = ([^\n]*)\n(?:\n|\Z)"
)


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


class KatReport(namedtuple("KatReport", "total failures")):
    """Aggregate over both directions of `total` records.

    failures is a tuple of KatFailure, one per failed direction; `failed`
    counts them and `passed` is the rest of the 2 * total directions.
    """

    __slots__ = ()

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> int:
        return 2 * self.total - self.failed

    def summary(self) -> str:
        return f"total={self.total} passed={self.passed} failed={self.failed}"

    def lines(self) -> list[str]:
        """Machine-readable failure lines followed by the summary."""
        return [f.line() for f in self.failures] + [self.summary()]


def _finish_record(
    fields: dict[str, bytes | int], records: list[KatRecord], line_number: int
) -> KatRecord:
    for name in _ALL_FIELDS:
        if name not in fields:
            raise KatParseError(f"record is missing field {name}", line_number)
    count = fields["Count"]
    prev_count = records[-1].count if records else 0
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
    duplicated fields, bad hex, missing fields, counts that are not ASCII
    decimal digits, do not start at 1 or do not increase, and per-record
    length violations, always naming the offending line.

    Text in the generator's layout whose records pass those checks is split
    by `_GENERATED_RECORD` and decoded a column at a time; all other text
    goes to `_parse_lines`, which gives the same records or the error.
    """
    parts = re.split(_GENERATED_RECORD, text)
    if not any(parts[::7]):  # nothing outside the records
        try:
            counts = list(map(int, parts[1::7]))
            key, nonce, pt, ad, ct = [list(map(a2b_hex, parts[i::7])) for i in range(2, 7)]
        except ValueError:  # bad hex, or a count too long for int()
            pass
        else:
            if (
                counts[:1] == [1]
                and all(a < b for a, b in zip(counts, counts[1:]))
                and all(len(k) == aead.KEY_BYTES for k in key)
                and all(len(n) == aead.NONCE_BYTES for n in nonce)
                and all(len(c) == len(p) + aead.TAG_BYTES for p, c in zip(pt, ct))
            ):
                return list(map(KatRecord, counts, key, nonce, pt, ad, ct))
    return _parse_lines(text)


def _parse_lines(text: str) -> list[KatRecord]:
    """`parse_kat_file` by a loop over the lines: any layout, and every error."""
    records: list[KatRecord] = []
    fields: dict[str, bytes | int] = {}
    # Lines end at \n, \r\n or \r only, not at the other breaks that
    # str.splitlines knows, such as \f; the newline goes with the strip below.
    lines = io.StringIO(text, newline=None).readlines()
    # A record ends at a blank line or a Count line; a blank sentinel,
    # numbered as the last line, ends the last one.
    for line_number, raw in chain(enumerate(lines, start=1), [(len(lines), "")]):
        line = raw.strip()
        name, eq, value = line.partition("=")
        name = name.strip()
        if (not line or (name == "Count" and eq)) and fields:
            records.append(_finish_record(fields, records, line_number))
            fields = {}
        if not line:
            continue
        if not eq:
            raise KatParseError(f"expected 'Field = value', got {line!r}", line_number)
        value = value.strip()
        if name not in _ALL_FIELDS:
            raise KatParseError(f"unknown field {name!r}", line_number)
        if name in fields:
            raise KatParseError(f"duplicate field {name!r}", line_number)
        if name == "Count":
            if not (value.isascii() and value.isdigit()):
                raise KatParseError(f"invalid count {value!r}", line_number)
            try:
                count = fields[name] = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                raise KatParseError(f"invalid count of {len(value)} digits", line_number) from None
            if count != 1 and not records:
                raise KatParseError(f"counts must start at 1, got {count}", line_number)
        else:
            try:
                fields[name] = hex_decode(value)
            except HexError as exc:
                raise KatParseError(f"bad hex in {name}: {exc}", line_number) from None
    return records


def run_kat(records: list[KatRecord], params: aead.VariantParams) -> KatReport:
    """Verify every record in both directions against the given variant.

    Records are never mutated; rerunning yields an identical report.  Each
    failure names the first divergent field: CT or TAG for the encrypt
    direction, TAG (rejected) or PT (wrong output) for decrypt.
    """
    failures: list[KatFailure] = []
    for rec in sorted(records, key=lambda r: r.count):
        ct, tag = aead.encrypt(params, rec.key, rec.nonce, rec.ad, rec.pt)
        if ct + tag != rec.ct_and_tag:
            field = "CT" if ct != rec.ciphertext else "TAG"
            failures.append(KatFailure(rec.count, "encrypt", field))
        try:
            pt = aead.decrypt(
                params, rec.key, rec.nonce, rec.ad, rec.ciphertext, rec.tag
            )
        except aead.AuthenticationFailure:
            failures.append(KatFailure(rec.count, "decrypt", "TAG"))
        else:
            if pt != rec.pt:
                failures.append(KatFailure(rec.count, "decrypt", "PT"))
    return KatReport(len(records), tuple(failures))
