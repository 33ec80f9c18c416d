"""Every request of ``tests/cli_digest.py``, pinned: a change to any exit code
or to any byte a command prints changes this digest of the whole output."""

import hashlib
import sys

import pytest

import cli_digest

DIGEST = "fb17ea33aa46d8f2a12d6946812f456ac98c60bb7e1ccb9a050ee481af4c0b07"
LINES = 6030


# argparse wraps --help to the terminal width, read from COLUMNS, and its
# layout differs between Python minor versions
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="--help layout is pinned for Python 3.11")
def test_cli_digest_is_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert cli_digest.main_digest() == 0
    out = capsys.readouterr().out
    assert out.count("\n") == LINES
    assert hashlib.sha256(out.encode()).hexdigest() == DIGEST
