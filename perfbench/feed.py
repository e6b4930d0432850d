"""Seeded advisory-feed generator owned by the benchmark.

Rows follow the planted-signal template of the test suite's synthetic
feed: high-severity rows mostly use exploit-style sentences and
high-severity vendors, a small share of rows read like the other class,
a few CVSS cells are missing and a few identifiers are duplicated. Each
rate is met exactly, by count, rather than drawn row by row, so feeds of
different seeds differ in which rows are noisy but not in how many, and
the work they cause varies less from seed to seed. With
``long_tail=True`` every description also gets one sentence of
Zipf-distributed module and product identifiers, as real advisories
have, so the TF-IDF vocabulary grows past its 5,000-term cap and part
of a later stream's vocabulary is unseen at fit time.

The same arguments always give the same bytes.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

HEADER = ("zdi_id", "cve_id", "cvss", "published", "vendor", "description")

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

POSITIVE_RATE = 0.7
FLIP_RATE = 0.03  # share of rows whose text reads like the other class
VENDOR_MISMATCH_RATE = 0.2  # share of rows whose vendor belongs to the other class
CVE_RATE = {True: 0.9, False: 0.75}  # share of high / low rows carrying a CVE id

# Long-tail identifiers: a prefix plus a Zipf-distributed rank, e.g. "lib17".
TAIL_PREFIXES = ("lib", "svc", "drv", "mod", "pkg", "ext")
TAIL_ZIPF_A = 1.2
TAIL_IDS_PER_ROW = 5


def _tail_sentence(rng: np.random.Generator) -> str:
    ids = [
        f"{TAIL_PREFIXES[int(rng.integers(len(TAIL_PREFIXES)))]}{int(rng.zipf(TAIL_ZIPF_A))}"
        for _ in range(TAIL_IDS_PER_ROW)
    ]
    return f"Affected modules include {', '.join(ids[:-1])} in build {ids[-1]}."


def _exact_mask(rng: np.random.Generator, candidates: np.ndarray, share: float) -> np.ndarray:
    """Mask with exactly ``round(share * k)`` of the ``k`` candidate rows set."""
    idx = np.flatnonzero(candidates)
    mask = np.zeros(len(candidates), dtype=bool)
    mask[rng.permutation(idx)[: round(share * len(idx))]] = True
    return mask


def generate_rows(
    n: int,
    seed: int | Sequence[int],
    long_tail: bool = False,
    missing_cvss: int = 3,
    duplicate_ids: int = 2,
    id_prefix: str = "ZDI-24",
) -> list[list[str]]:
    """``n`` advisory rows (cells as strings) in ``HEADER`` order."""
    rng = np.random.default_rng(seed)
    every = np.ones(n, dtype=bool)
    high = _exact_mask(rng, every, POSITIVE_RATE)
    # a share of rows read like the other class, so the signal is imperfect
    flipped = _exact_mask(rng, every, FLIP_RATE)
    odd_vendor = _exact_mask(rng, every, VENDOR_MISMATCH_RATE)
    has_cve = _exact_mask(rng, high, CVE_RATE[True]) | _exact_mask(rng, ~high, CVE_RATE[False])
    rows = []
    for i in range(n):
        is_high = bool(high[i])
        text_pool_high = is_high != bool(flipped[i])
        sentences = HIGH_SENTENCES if text_pool_high else LOW_SENTENCES
        picks = rng.choice(len(sentences), size=2, replace=False)
        body = " ".join(sentences[p] for p in picks) + " " + FILLER[int(rng.integers(len(FILLER)))]
        text = body.format(
            product=PRODUCTS[int(rng.integers(len(PRODUCTS)))],
            component=COMPONENTS[int(rng.integers(len(COMPONENTS)))],
            artifact=ARTIFACTS[int(rng.integers(len(ARTIFACTS)))],
        )
        if long_tail:
            text += " " + _tail_sentence(rng)
        vendors = VENDORS_HIGH if is_high != bool(odd_vendor[i]) else VENDORS_LOW
        vendor = vendors[int(rng.integers(len(vendors)))]
        cvss = round(float(rng.uniform(7.0, 9.8)), 1) if is_high else round(float(rng.uniform(2.5, 6.8)), 1)
        month = int(rng.integers(1, 5))
        day = int(rng.integers(1, 28))
        cve = f"CVE-2024-{20000 + i}" if has_cve[i] else ""
        rows.append([f"{id_prefix}-{i:05d}", cve, f"{cvss}", f"2024-{month:02d}-{day:02d}", vendor, text])

    for i in range(missing_cvss):
        rows[5 + 7 * i][2] = "N/A" if i % 2 == 0 else ""
    for i in range(duplicate_ids):
        rows[20 + i][0] = rows[10 + i][0]
    return rows


def to_csv_bytes(rows: list[list[str]]) -> bytes:
    """UTF-8 CSV with a header row and no byte-order mark."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")
