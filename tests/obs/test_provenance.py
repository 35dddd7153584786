"""Tests for benchmark-record provenance."""

import shutil
import subprocess

import pytest

from repro.obs import provenance as module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_dirty_follows_git_status(tmp_path, monkeypatch):
    def git(*args):
        subprocess.run(
            ("git", "-c", "user.name=t", "-c", "user.email=t@t") + args,
            cwd=tmp_path,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "tracked.txt").write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    # provenance() inspects the checkout its module file lives in.
    monkeypatch.setattr(module, "__file__", str(tmp_path / "provenance.py"))
    clean = module.provenance([])
    assert len(clean["commit"]) == 40
    assert clean["dirty"] is False
    (tmp_path / "tracked.txt").write_text("two\n")
    assert module.provenance([])["dirty"] is True


def test_no_checkout_reads_none(tmp_path, monkeypatch):
    monkeypatch.setattr(module, "__file__", str(tmp_path / "provenance.py"))
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    record = module.provenance([])
    assert record["commit"] is None
    assert record["dirty"] is None
