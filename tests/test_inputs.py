"""Outside input: every config, channel and region file that is not the
JSON object its reader needs ends in the reader's typed error, and the CLI
turns it into exit code 1 and one ``error:`` line."""

import contextlib
import io
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import cli
from compound_bcc.channel import load_channel
from compound_bcc.errors import ChannelFormatError, ConfigError, InvalidInputError
from compound_bcc.regions import load_region

# kind: (the reader, its error, the CLI flags that read such a file, or None)
READERS = {
    "config file": (lambda path: cli.load_config(path, "gaussian"), ConfigError,
                    ["gaussian", "--config"]),
    "channel file": (load_channel, ChannelFormatError, ["verify-channel", "--channel"]),
    "region file": (load_region, InvalidInputError, None),
}

BAD_FILES = {
    "not-utf8": (b'{"M": 4\xff}', "is not UTF-8 text"),
    "long-int": (
        b'{"M": ' + b"9" * 5000 + b"}",
        f"holds an integer of more than {sys.get_int_max_str_digits()} digits",
    ),
    "deep": (b"[" * 100_000 + b"]" * 100_000, "nests arrays or objects past the recursion limit"),
}


def run_cli(argv):
    """cli.main's exit code and the lines it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), tempfile.TemporaryDirectory() as out:
        code = cli.main([*argv, "--out", out])
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("bad", BAD_FILES)
@pytest.mark.parametrize("kind", READERS)
def test_unreadable_file_is_a_typed_error(tmp_path, kind, bad):
    data, problem = BAD_FILES[bad]
    path = tmp_path / "input.json"
    path.write_bytes(data)
    read, error, flags = READERS[kind]
    with pytest.raises(error) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{kind} {problem}"
    if flags:
        assert run_cli([*flags, str(path)]) == (1, [f"error: {kind} {problem}"])


@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("text, problem", [
    ('{"M": 4,\n "N1": }', "is not valid JSON (line 2, column 8): Expecting value"),
    ("[1, 2]", "must contain a JSON object"),
    ("", "is not valid JSON (line 1, column 1): Expecting value"),
])
def test_decode_and_type_messages(tmp_path, kind, text, problem):
    path = tmp_path / "input.json"
    path.write_text(text)
    read, error, _ = READERS[kind]
    with pytest.raises(error) as excinfo:
        read(path)
    assert str(excinfo.value) == f"{kind} {problem}"


def test_channel_file_with_huge_state_count_ends_at_its_first_missing_matrix(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text('{"M": 1, "N1": 1, "N2": 1, "J1": 1000000000000, "J2": 1, "matrices": {}}')
    with pytest.raises(ChannelFormatError, match="missing matrix 'H_1_1'"):
        load_channel(path)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_never_raise(data):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        for flags in (["gaussian", "--config"], ["verify-channel", "--channel"]):
            code, lines = run_cli([*flags, path])
            assert code in (0, 1, 2)
            if code == 1:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
        with contextlib.suppress(InvalidInputError):
            load_region(path)
    finally:
        os.unlink(path)
