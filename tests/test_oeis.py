"""b-file parsing, bundled fixtures, local search, and remote search on a fake urlopen."""

import http.client
import json
import pathlib
import subprocess
import sys
import urllib.error
import urllib.request
from urllib.parse import parse_qs, urlsplit

import pytest

import fibrec
from conftest import A010049 as A010049_EXPR
from conftest import A054454 as A054454_EXPR
from conftest import A129707 as A129707_EXPR

from fibrec import (
    OeisEntry,
    OeisFormatError,
    OeisHit,
    OeisTimeoutError,
    OeisTransportError,
    compositions_parts_count,
    entry_from_bfile,
    fib,
    fibonacci_word_inversions,
    leonardo,
    load_fixtures,
    parse_bfile,
    render_bfile,
    search_local,
    search_remote,
)
from fibrec.cli import main


def test_parse_bfile_skips_comments_and_blanks():
    text = "# header\n\n0 1\n1 1\n2 3\n# trailing\n"
    assert parse_bfile(text) == [(0, 1), (1, 1), (2, 3)]


def test_parse_bfile_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_bfile("0 1\n1\n")
    with pytest.raises(ValueError):
        parse_bfile("0 one\n")
    with pytest.raises(ValueError):
        parse_bfile("0 1 2\n")


def test_entry_from_bfile_requires_contiguous_indices():
    with pytest.raises(ValueError):
        entry_from_bfile("A000001", "0 1\n2 3\n")
    with pytest.raises(ValueError):
        entry_from_bfile("A000001", "# only comments\n")
    entry = entry_from_bfile("A000001", "5 8\n6 13\n")
    assert entry.offset == 5
    assert entry.terms == (8, 13)


def test_entry_validation():
    with pytest.raises(ValueError):
        OeisEntry("B000045", 0, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        OeisEntry("A00045", 0, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        OeisEntry("A000045", 0, ())


def test_fixtures_load_and_round_trip():
    fixtures = load_fixtures()
    assert sorted(fixtures) == ["A000045", "A001595", "A010049", "A054454", "A129707"]
    for a_number, entry in fixtures.items():
        assert entry.a_number == a_number
        again = entry_from_bfile(a_number, render_bfile(entry, comments=("round trip",)))
        assert again == entry


def test_load_fixtures_reads_each_bfile():
    fixtures = load_fixtures()
    assert list(fixtures) == ["A000045", "A001595", "A010049", "A054454", "A129707"]
    folder = pathlib.Path(fibrec.__file__).parent / "fixtures"
    for a_number, entry in fixtures.items():
        pairs = parse_bfile((folder / f"b{a_number[1:]}.txt").read_text())
        assert pairs[0][0] == 0
        assert entry == OeisEntry(a_number, 0, tuple(v for _, v in pairs))


def test_fixture_terms_match_their_formulas():
    fixtures = load_fixtures()
    assert fixtures["A000045"].terms == tuple(fib(n) for n in range(41))
    assert fixtures["A001595"].terms == tuple(leonardo(n) for n in range(41))
    assert fixtures["A010049"].terms == tuple(A010049_EXPR.at(n) for n in range(41))
    assert fixtures["A129707"].terms == tuple(A129707_EXPR.at(n) for n in range(41))
    assert fixtures["A054454"].terms == tuple(A054454_EXPR.at(n) for n in range(41))
    # and the first stretch against the enumerators themselves
    assert fixtures["A010049"].terms[:19] == tuple(
        compositions_parts_count(n) for n in range(19)
    )
    assert fixtures["A129707"].terms[:21] == tuple(
        fibonacci_word_inversions(n) for n in range(21)
    )


@pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "empty"])
def test_missing_fixtures_are_named(monkeypatch, capsys, tmp_path, make_dir):
    folder = tmp_path / "fixtures"
    if make_dir:
        folder.mkdir()
        (folder / "README.txt").write_text("not a b-file\n")
    monkeypatch.setattr(fibrec.oeis.resources, "files", lambda package: tmp_path)
    with pytest.raises(FileNotFoundError) as info:
        load_fixtures()
    assert str(info.value) == f"no OEIS b-files (b*.txt) in {folder}"
    assert main(["oeis", "0,1,1,2,3,5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert str(folder) in err


def test_search_local_examples():
    hits = search_local([1, 1, 3, 5, 9, 15])
    assert [h.entry.a_number for h in hits] == ["A001595"]
    assert hits[0].match_start == 0

    hits = search_local([0, 1, 1, 2, 3, 5, 8])
    assert [h.entry.a_number for h in hits] == ["A000045"]

    assert search_local([1, 1, 2, 2, 4, 7, 15, 32, 69]) == []


def test_search_local_mid_sequence_match():
    hits = search_local([5, 8, 13, 21])
    assert [h.entry.a_number for h in hits] == ["A000045"]
    assert hits[0].match_start == 5
    entry = hits[0].entry
    assert entry.terms[hits[0].match_start : hits[0].match_start + 4] == (5, 8, 13, 21)


def test_search_local_is_sorted_by_a_number():
    entries = [
        OeisEntry("A999999", 0, (1, 2, 3, 4, 5)),
        OeisEntry("A000001", 0, (0, 1, 2, 3, 4, 5)),
    ]
    hits = search_local([2, 3, 4, 5], entries)
    assert [h.entry.a_number for h in hits] == ["A000001", "A999999"]
    assert [h.match_start for h in hits] == [2, 1]


def test_search_local_rejects_short_prefixes():
    with pytest.raises(ValueError):
        search_local([1, 1, 2])


def test_import_loads_only_the_standard_library():
    # the remote search imports urllib.request itself, only when it runs
    code = (
        "import sys; before = set(sys.modules); import fibrec; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "fibrec" in loaded
    assert "urllib.request" not in loaded
    outside = {
        m for m in loaded if m.partition(".")[0] not in sys.stdlib_module_names | {"fibrec"}
    }
    assert outside == set()


class _FakeResponse:
    def __init__(self, payload=None, status=200):
        self.status = status
        self.body = b"not json" if payload is None else json.dumps(payload).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return self.body


def _serve(monkeypatch, response=None, exc=None):
    """Replace urlopen; the returned list collects the (url, timeout) of each call."""
    sent = []

    def fake_urlopen(url, timeout=None):
        sent.append((url, timeout))
        if exc is not None:
            raise exc
        return response

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return sent


def test_search_remote_parses_hits(monkeypatch):
    payload = {
        "results": [
            {"number": 45, "data": "0,1,1,2,3,5,8,13,21"},
            {"number": 999, "data": "9,9,9,9,9"},  # fuzzy match: dropped
        ],
        "count": 2,
    }
    sent = _serve(monkeypatch, _FakeResponse(payload))
    hits = search_remote([0, 1, 1, 2, 3, 5, 8], timeout=3.0)
    assert hits == [
        OeisHit(OeisEntry("A000045", 0, (0, 1, 1, 2, 3, 5, 8, 13, 21)), 0)
    ]
    [(url, timeout)] = sent
    parts = urlsplit(url)
    assert f"{parts.scheme}://{parts.netloc}{parts.path}" == "https://oeis.org/search"
    assert parse_qs(parts.query) == {"q": ["0,1,1,2,3,5,8"], "fmt": ["json"]}
    assert timeout == 3.0


def test_search_remote_accepts_bare_list_payload(monkeypatch):
    _serve(monkeypatch, _FakeResponse([{"number": 45, "data": "0,1,1,2,3,5,8"}]))
    assert len(search_remote([0, 1, 1, 2])) == 1


def test_search_remote_empty_result_is_not_an_error(monkeypatch):
    _serve(monkeypatch, _FakeResponse({"results": None, "count": 0}))
    assert search_remote([1, 2, 3, 4]) == []


def test_search_remote_error_paths(monkeypatch):
    raised = [
        (TimeoutError("read timed out"), OeisTimeoutError),
        (urllib.error.URLError(ConnectionRefusedError(111, "refused")), OeisTransportError),
        (ConnectionResetError(104, "reset"), OeisTransportError),
        (http.client.IncompleteRead(b"{"), OeisTransportError),
        (
            urllib.error.HTTPError("https://oeis.org/search", 500, "Server Error", {}, None),
            OeisTransportError,
        ),
    ]
    for exc, error in raised:
        _serve(monkeypatch, exc=exc)
        with pytest.raises(error):
            search_remote([1, 2, 3, 4])
    answered = [
        (_FakeResponse({"count": 0}, status=203), OeisTransportError),
        (_FakeResponse(None), OeisFormatError),
        (_FakeResponse({"weird": True}), OeisFormatError),
        (_FakeResponse({"results": [{"number": "x", "data": 3}]}), OeisFormatError),
    ]
    for response, error in answered:
        _serve(monkeypatch, response)
        with pytest.raises(error):
            search_remote([1, 2, 3, 4])
    sent = _serve(monkeypatch, _FakeResponse({"count": 0}))
    with pytest.raises(ValueError):
        search_remote([1, 2, 3])
    assert sent == []


def test_search_remote_wrapped_connect_timeout(monkeypatch):
    # urlopen reports a timeout while connecting as URLError(reason=TimeoutError)
    _serve(monkeypatch, exc=urllib.error.URLError(TimeoutError("connect timed out")))
    with pytest.raises(OeisTimeoutError):
        search_remote([1, 2, 3, 4])


def test_cli_remote_lookup_prints_hits(monkeypatch, capsys):
    monkeypatch.setenv("FIBREC_OEIS_REMOTE", "1")
    payload = {"results": [{"number": 45, "data": "0,1,1,2,3,5,8,13,21"}], "count": 1}
    sent = _serve(monkeypatch, _FakeResponse(payload))
    assert main(["oeis", "2,3,5,8", "--remote", "--timeout", "2.5"]) == 0
    assert capsys.readouterr().out == "A000045 offset=0 match_start=3\n"
    assert main(["oeis", "2,3,5,8", "--remote", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "oeis",
        "prefix": [2, 3, 5, 8],
        "source": "remote",
        "hits": [{"a_number": "A000045", "offset": 0, "match_start": 3}],
    }
    assert [timeout for _, timeout in sent] == [2.5, 10.0]
