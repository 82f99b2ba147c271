"""Match sequence prefixes against OEIS: bundled b-files first, HTTP opt-in.

Local search runs against the fixtures shipped with the package: standard
b-files ("n a(n)" per line, '#' comment lines allowed).  The file name
bNNNNNN.txt gives the A-number and the first index gives the offset.
Remote search queries the public OEIS JSON endpoint with the standard
library's urllib, imported only when a remote search runs; it is strictly
opt-in at the CLI, and the tests replace ``urllib.request.urlopen``
instead of reaching the network.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

MIN_PREFIX = 4
OEIS_SEARCH_URL = "https://oeis.org/search"

_A_NUMBER = re.compile(r"\AA\d{6}\Z")


class OeisLookupError(Exception):
    """Base class for remote lookup failures."""


class OeisTimeoutError(OeisLookupError):
    """The OEIS query did not answer within the timeout."""


class OeisTransportError(OeisLookupError):
    """The OEIS query failed at the network or HTTP level."""


class OeisFormatError(OeisLookupError):
    """The OEIS response could not be understood."""


@dataclass(frozen=True)
class OeisEntry:
    a_number: str
    offset: int
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _A_NUMBER.match(self.a_number):
            raise ValueError(f"bad A-number {self.a_number!r}")
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        if not self.terms:
            raise ValueError(f"{self.a_number}: entry has no terms")


@dataclass(frozen=True)
class OeisHit:
    """entry.terms[match_start:] starts with the queried prefix."""

    entry: OeisEntry
    match_start: int


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Parse b-file text into (n, a(n)) pairs; '#' starts a comment line."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'n a(n)', got {raw!r}")
        try:
            pairs.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
    return pairs


def entry_from_bfile(a_number: str, text: str) -> OeisEntry:
    """Build an entry from b-file text; indices must be contiguous."""
    pairs = parse_bfile(text)
    if not pairs:
        raise ValueError(f"{a_number}: empty b-file")
    ns = [n for n, _ in pairs]
    if ns != list(range(ns[0], ns[0] + len(ns))):
        raise ValueError(f"{a_number}: b-file indices are not contiguous")
    return OeisEntry(a_number, ns[0], tuple(v for _, v in pairs))


def render_bfile(entry: OeisEntry, comments: Sequence[str] = ()) -> str:
    """Serialize an entry back to b-file text (optional leading comments)."""
    lines = [f"# {c}" for c in comments]
    lines += [f"{entry.offset + i} {t}" for i, t in enumerate(entry.terms)]
    return "\n".join(lines) + "\n"


def load_fixtures() -> dict[str, OeisEntry]:
    """Bundled entries keyed by A-number, one per fixtures/b*.txt in name order.

    Raises FileNotFoundError naming the directory when it is missing or
    holds no b-file, as in an installation that lost its package data.
    """
    fixtures = resources.files(__package__) / "fixtures"
    names = sorted(p.name for p in fixtures.iterdir()) if fixtures.is_dir() else []
    names = [name for name in names if name.startswith("b") and name.endswith(".txt")]
    if not names:
        raise FileNotFoundError(f"no OEIS b-files (b*.txt) in {fixtures}")
    out: dict[str, OeisEntry] = {}
    for name in names:
        entry = entry_from_bfile(f"A{name[1:-4]}", (fixtures / name).read_text())
        out[entry.a_number] = entry
    return out


def _find_run(haystack: tuple[int, ...], needle: tuple[int, ...]) -> int | None:
    for start in range(len(haystack) - len(needle) + 1):
        if haystack[start : start + len(needle)] == needle:
            return start
    return None


def _checked_prefix(prefix: Sequence[int]) -> tuple[int, ...]:
    needle = tuple(int(x) for x in prefix)
    if len(needle) < MIN_PREFIX:
        raise ValueError(f"prefix must have at least {MIN_PREFIX} terms")
    return needle


def search_local(
    prefix: Sequence[int], entries: Iterable[OeisEntry] | None = None
) -> list[OeisHit]:
    """All entries (the bundled fixtures by default) holding the prefix as a contiguous run.

    Results are ordered by A-number; an empty list means no match.
    """
    needle = _checked_prefix(prefix)
    if entries is None:
        entries = load_fixtures().values()
    hits = []
    for entry in sorted(entries, key=lambda e: e.a_number):
        start = _find_run(entry.terms, needle)
        if start is not None:
            hits.append(OeisHit(entry, start))
    return hits


def search_remote(prefix: Sequence[int], timeout: float = 10.0) -> list[OeisHit]:
    """Query the public OEIS JSON search endpoint with the prefix.

    Only the "number" and "data" fields of each result are consumed, so
    remote entries carry offset 0; results whose data does not actually
    contain the prefix contiguously are dropped.  Failures are never
    silent: timeout, transport and malformed-response errors are distinct.
    """
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError, URLError
    from urllib.parse import urlencode

    needle = _checked_prefix(prefix)
    query = urlencode({"q": ",".join(str(t) for t in needle), "fmt": "json"})
    try:
        with urllib.request.urlopen(f"{OEIS_SEARCH_URL}?{query}", timeout=timeout) as resp:
            status = resp.status
            body = resp.read()
    except HTTPError as exc:
        raise OeisTransportError(f"OEIS returned HTTP status {exc.code}") from exc
    except (TimeoutError, URLError) as exc:
        if isinstance(exc, TimeoutError) or isinstance(exc.reason, TimeoutError):
            raise OeisTimeoutError(f"OEIS query timed out after {timeout}s") from exc
        raise OeisTransportError(f"OEIS query failed: {exc}") from exc
    except (OSError, HTTPException) as exc:
        raise OeisTransportError(f"OEIS query failed: {exc}") from exc
    if status != 200:
        raise OeisTransportError(f"OEIS returned HTTP status {status}")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise OeisFormatError("OEIS response is not valid JSON") from exc
    if isinstance(payload, list):
        results = payload
    elif isinstance(payload, dict) and ("results" in payload or "count" in payload):
        results = payload.get("results") or []
    else:
        raise OeisFormatError("unrecognized OEIS response shape")
    hits = []
    for item in results:
        try:
            number = int(item["number"])
            terms = tuple(int(t) for t in str(item["data"]).split(","))
        except (KeyError, TypeError, ValueError) as exc:
            raise OeisFormatError(f"malformed OEIS result entry: {exc}") from exc
        start = _find_run(terms, needle)
        if start is None:
            continue
        hits.append(OeisHit(OeisEntry(f"A{number:06d}", 0, terms), start))
    return hits
