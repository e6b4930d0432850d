"""Shared fixtures: a synthetic disclosure feed with a learnable signal.

The generator mimics the shape of a real advisory CSV (identifiers,
CVE ids, CVSS scores, dates, vendors, templated description text) so the
end-to-end commands can be exercised without shipping real data. High
scores co-occur with exploit-style phrasing, with deliberate noise so
models cannot be trivially perfect.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

HIGH_SENTENCES = (
    "This vulnerability allows remote attackers to execute arbitrary code on affected installations of {product}.",
    "A crafted {artifact} can trigger a buffer overflow before writing to memory, leading to remote code execution.",
    "An attacker can leverage this privilege escalation flaw in the {component} service to gain SYSTEM rights.",
    "Exploitation of this RCE condition in {component} requires no authentication.",
    "The specific flaw exists within parsing of {artifact} files and results in code execution under the service account.",
)

LOW_SENTENCES = (
    "This vulnerability allows remote attackers to disclose sensitive information on affected installations of {product}.",
    "An information disclosure issue in the {component} endpoint reveals configuration details.",
    "A stored XSS weakness in the {component} page allows script injection in the administrative console.",
    "A crafted {artifact} can cause a denial of service in the {component} parser.",
    "The issue results from improper handling of {artifact} files and leads to info disclosure only.",
)

FILLER = (
    "User interaction is required to exploit this vulnerability in that the target must open a malicious file.",
    "Authentication is not required to exploit this vulnerability.",
    "The vendor has released an update to correct this issue.",
    "An attacker must first obtain the ability to execute low-privileged code on the target system.",
)

PRODUCTS = ("PDF Studio", "Mail Gateway", "Router Console", "Print Spooler", "EDR Agent", "Backup Manager")
COMPONENTS = ("JPEG2000", "license server", "RPC", "web dashboard", "firmware update", "session token")
ARTIFACTS = ("PDF", "archive", "packet", "font", "project", "certificate")

VENDORS_HIGH = ("Adobe", "Microsoft", "Ivanti", "Fortinet")
VENDORS_LOW = ("Trend Micro", "Siemens", "Oracle", "Apple")


def write_synthetic_csv(
    path: Path,
    n: int = 120,
    seed: int = 9,
    positive_rate: float = 0.72,
    missing_cvss: int = 3,
    duplicate_ids: int = 2,
    flip_rate: float = 0.10,
) -> Path:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        is_high = rng.random() < positive_rate
        # a fraction of rows read like the other class, so the signal is imperfect
        text_pool_high = is_high if rng.random() >= flip_rate else not is_high
        sentences = HIGH_SENTENCES if text_pool_high else LOW_SENTENCES
        picks = rng.choice(len(sentences), size=2, replace=False)
        body = " ".join(sentences[p] for p in picks) + " " + FILLER[int(rng.integers(len(FILLER)))]
        text = body.format(
            product=PRODUCTS[int(rng.integers(len(PRODUCTS)))],
            component=COMPONENTS[int(rng.integers(len(COMPONENTS)))],
            artifact=ARTIFACTS[int(rng.integers(len(ARTIFACTS)))],
        )
        vendors = VENDORS_HIGH if (is_high == (rng.random() < 0.8)) else VENDORS_LOW
        vendor = vendors[int(rng.integers(len(vendors)))]
        cvss = round(float(rng.uniform(7.0, 9.8)), 1) if is_high else round(float(rng.uniform(2.5, 6.8)), 1)
        month = int(rng.integers(1, 5))
        day = int(rng.integers(1, 28))
        has_cve = rng.random() < (0.9 if is_high else 0.75)
        cve = f"CVE-2024-{20000 + i}" if has_cve else ""
        rows.append([f"ZDI-24-{i:04d}", cve, f"{cvss}", f"2024-{month:02d}-{day:02d}", vendor, text])

    for i in range(missing_cvss):
        rows[5 + 7 * i][2] = "N/A" if i % 2 == 0 else ""
    for i in range(duplicate_ids):
        rows[20 + i][0] = rows[10 + i][0]

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["zdi_id", "cve_id", "cvss", "published", "vendor", "description"])
        writer.writerows(rows)
    return path


def block_of(matrix, names, group):
    """The ``features.Block`` of a matrix, dense or sparse: one entry per stored cell."""
    import scipy.sparse as sp

    from sevtriage import features  # not at the top: scripts import this module without the package on the path

    coo = sp.coo_matrix(matrix, dtype=np.float64)
    return features.Block(coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data, coo.shape[0], tuple(names), group)


def grouped_matrix(*parts):
    """The FeatureMatrix that ``features.assemble`` makes of blocks given as (matrix, names, group) parts.

    Each matrix, dense or sparse, becomes one block; the columns are
    assembled in the order given, each name prefixed with its group, as
    a FeatureBuilder assembles its vendor, indicator and text blocks.
    """
    from sevtriage import features

    blocks = [block_of(*part) for part in parts]
    return features.assemble(blocks, tuple(f"{b.group}__{name}" for b in blocks for name in b.names))


@pytest.fixture(scope="session")
def synthetic_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    return write_synthetic_csv(path, n=120, seed=9)


@pytest.fixture(scope="session")
def synthetic_records(synthetic_csv):
    from sevtriage import corpus

    with open(synthetic_csv, "rb") as fh:
        return corpus.clean(corpus.parse_csv(fh))


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_records):
    from sevtriage import corpus

    labels = corpus.label(synthetic_records)
    return corpus.stratified_split(synthetic_records, labels, test_fraction=0.2, seed=42)
