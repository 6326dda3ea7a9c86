"""What every command reads: the file readers, the enums a config names, and the reference
frequency table.

This module holds no corpus or analysis code, so the calls every command makes
(`cli.load_config` and `cli.run_validation`, which load the config, the lexicons, the
concept map and the frequency tables) compile only it, `errors`, `lexicon` and `cli`.
Every TSV resource is read in Unicode normal form NFC, the form the tokenizer produces.
"""

import json
import re
import sys
import unicodedata
from enum import Enum
from functools import cache
from math import isfinite
from pathlib import Path

from .errors import FrozenRecord, IngestError, ValidationError

Lemma = str


def read_bytes(path, name=None) -> bytes:
    """The bytes of a file. A missing or unreadable file is an IngestError naming
    `name` (by default the path)."""
    name = path if name is None else name
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise IngestError(f"file not found: {name}") from None
    except OSError as exc:
        raise IngestError(f"cannot read {name}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL or an unencodable character in the path
        raise IngestError(f"cannot read {name}: {exc}") from None


def read_text(path, name=None) -> str:
    """Decode a UTF-8 file, dropping a leading byte order mark. A missing, unreadable
    or undecodable file is an IngestError naming `name` (by default the path)."""
    name = path if name is None else name
    data = read_bytes(path, name)
    mark = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    try:
        # the "utf-8-sig" codec would load its module in every command; a view of the
        # bytes after the mark decodes without copying them
        return str(memoryview(data)[mark:], "utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name}: not UTF-8 text (byte {mark + exc.start})") from None


@cache
def _sha256():
    try:  # only this version's module: a failed import searches every sys.path entry
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256  # a CPython built without the built-in hashes
    return sha256


def sha256_hex(data: bytes) -> str:
    """The hex SHA-256 digest of `data`; every hash the package computes is one.

    The hash comes from the interpreter's built-in module, imported on first
    use; `hashlib` is only the fallback. `hashlib` would load `_hashlib` and
    map OpenSSL's libcrypto, about 3.6 MiB of RSS and 3 ms of start-up, to
    hash the few kilobytes of files a config names. The built-in hash is
    slower, about 250 MiB/s against OpenSSL's 1.3 GiB/s on a 2-core Xeon VM:
    on 1.36 MB it costs about 4 ms more, and hashing the corpus texts too
    (1.9 MB on the bulk-ingest benchmark) would add about 6 ms, so re-measure
    before hashing more.
    """
    return _sha256()(data).hexdigest()


# C0 but tab, LF and CR; DEL; C1; the line and paragraph separators. Refusing these
# leaves LF, CR and CRLF as the only line ends that `str.splitlines` finds.
_TSV_CONTROL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f\u2028\u2029]")


def read_tsv(path, columns: str):
    """Yield `(line number, fields)` for each data row of a TSV resource file.

    The file is read in NFC; lines and fields are stripped of surrounding
    whitespace, and blank lines and `#` comments are skipped. A row whose
    field count differs from `columns`, a spec like "lemma<TAB>class", or a
    control character or Unicode line separator that no token could match, is a
    ValidationError naming `path:line`; only LF, CR and CRLF end a line.
    """
    width = columns.count("<TAB>") + 1
    text = unicodedata.normalize("NFC", read_text(path))
    control = _TSV_CONTROL.search(text)
    if control:
        lineno = len((text[:control.start()] + ".").splitlines())
        raise ValidationError(f"{path}:{lineno}: control character U+{ord(control[0]):04X}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != width:
            raise ValidationError(f"{path}:{lineno}: expected '{columns}'")
        yield lineno, fields


def read_json(path) -> dict:
    """Parse a JSON file whose top level must be an object; anything else is a
    ValidationError naming the path. Object keys are read in NFC, and two keys
    of one object that are equal in NFC, as written or not, are a ValidationError;
    values are left as written (see `errors.check`)."""
    def nfc_keys(pairs) -> dict:
        body, written = {}, {}
        for key, value in pairs:
            nfc = unicodedata.normalize("NFC", key)
            if nfc in written:
                if written[nfc] == key:
                    raise ValidationError(f"{path}: object key {nfc!r} is written twice")
                raise ValidationError(f"{path}: object key {nfc!r} is written in two normal "
                                      f"forms: {ascii(written[nfc])} and {ascii(key)}")
            written[nfc] = key
            body[nfc] = value
        return body

    try:
        body = json.loads(read_text(path), object_pairs_hook=nfc_keys)
    except (ValueError, RecursionError) as exc:  # also an integer of over 4,300 digits
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ValidationError(f"{path}: the top level must be a JSON object")
    return body


def check_language(what: str, found: str, against: str, expected: str) -> None:
    """Raise ValidationError unless `what`, in `found`, is in the language of `against`."""
    if found != expected:
        raise ValidationError(
            f"language mismatch: {what} is {found!r} but {against} is {expected!r}")


class TranslationKind(str, Enum):
    SOURCE = "source"
    HUMAN = "human"
    MACHINE = "machine"


class ChannelKind(str, Enum):  # the kinds a synthetic channel emits
    MACHINE = "machine"
    HUMAN = "human"


class DeviationMode(str, Enum):
    DIFFERENCE = "difference"
    RATIO = "ratio"


class FrequencyTable(FrozenRecord):
    """Reference per-million lemma frequencies for one language."""

    def __init__(self, language_code: str, freqs: dict[Lemma, float]):
        for lemma, pm in freqs.items():
            if not isfinite(pm) or pm < 0:
                raise ValidationError(f"invalid frequency for {lemma!r}: {pm}")
        self.__dict__.update(language_code=language_code, freqs=freqs)

    @classmethod
    def load(cls, path, language_code: str) -> "FrequencyTable":
        """Read a TSV of `lemma<TAB>per_million` (see `read_tsv`).

        A lemma listed again with a different frequency is a ValidationError.
        """
        freqs: dict[str, float] = {}
        for lineno, (lemma, number) in read_tsv(path, "lemma<TAB>per_million"):
            try:
                pm = float(number)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: not a number: {number!r}") from None
            if not isfinite(pm) or pm < 0:
                raise ValidationError(f"{path}:{lineno}: invalid frequency for {lemma!r}: "
                                      f"{number}")
            if lemma in freqs and freqs[lemma] != pm:
                raise ValidationError(f"{path}:{lineno}: lemma {lemma!r} repeated with a "
                                      f"different frequency")
            freqs[lemma] = pm
        return cls(language_code, freqs)

    def lookup(self, lemma: Lemma) -> tuple[float, bool]:
        """Per-million frequency and a coverage flag; absent lemmas are (0.0, False)."""
        if lemma in self.freqs:
            return self.freqs[lemma], True
        return 0.0, False
