"""SHA-256 of every file the CLI writes, and of each command's stdout, on a fixed run.

The run: the 120-row planted feed (``write_synthetic_csv(n=120, seed=9)``)
at seed 11 with ``--n-trees 10 --epochs 2`` through ``benchmark-features``,
``benchmark-models`` and ``ensembles``, then ``predict`` on the same feed
and every ``plot`` kind, all through ``cli.main`` in this one process.
Paths are relative to a scratch working directory, so stdout, which
names them, is the same wherever the run happens.

Float bits depend on the Python, numpy and scipy builds and on the BLAS
thread count, so the digest file records the versions, and this script
must run with ``OPENBLAS_NUM_THREADS=1``.

Usage, from the repository root::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_digests.py --write   # regenerate the file
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_digests.py           # print the digests as JSON
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from conftest import write_synthetic_csv

DIGEST_FILE = Path(__file__).with_name("cli_digests.json")
TRAINING_FLAGS = ("--data", "feed.csv", "--seed", "11", "--n-trees", "10", "--epochs", "2", "--out", "out")
PLOTS = ("keywords", "variance", "pca_scatter", "chi2_terms", "mi_terms", "roc", "activations")
COMMANDS = (
    *((cmd, [cmd, *TRAINING_FLAGS]) for cmd in ("benchmark-features", "benchmark-models", "ensembles")),
    ("predict", ["predict", "--model", "out/model_baseline_lr.json", "--input", "feed.csv", "--out", "out"]),
    *((f"plot-{which}", ["plot", "--which", which, "--out", "out"]) for which in PLOTS),
)


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def digests() -> dict[str, str]:
    """Run every command in a scratch directory; the SHA-256 of each output file and stdout, by path."""
    from sevtriage.cli import main

    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        raise SystemExit("set OPENBLAS_NUM_THREADS=1: float bits depend on the BLAS thread count")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_synthetic_csv(Path("feed.csv"), n=120, seed=9)
            out = {}
            for name, argv in COMMANDS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = main(argv)
                if rc != 0:
                    raise SystemExit(f"{name} exited {rc}")
                out[f"stdout/{name}.txt"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            for path in sorted(Path("out").rglob("*")):
                if path.is_file():
                    out[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return dict(sorted(out.items()))


if __name__ == "__main__":
    record = {**versions(), "digests": digests()}
    if sys.argv[1:] == ["--write"]:
        DIGEST_FILE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST_FILE} ({len(record['digests'])} digests)")
    else:
        print(json.dumps(record))
