"""Every file the CLI writes, and every stdout, keeps its bytes (see ``cli_digests.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_digests import DIGEST_FILE, versions

HERE = Path(__file__).parent


def test_cli_outputs_match_their_recorded_digests():
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    expected_versions = {k: recorded[k] for k in versions()}
    if versions() != expected_versions:
        pytest.skip(f"digests recorded under {expected_versions}, running under {versions()}")
    pythonpath = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": pythonpath}
    run = subprocess.run(
        [sys.executable, str(HERE / "cli_digests.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    actual = json.loads(run.stdout)["digests"]
    assert sorted(actual) == sorted(recorded["digests"])
    changed = [path for path, digest in recorded["digests"].items() if actual[path] != digest]
    assert changed == []
