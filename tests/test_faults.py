"""The fault table: known faults that ``verify`` must report.

Each row plants one fault in a copy of the library by an exact text
replacement and runs ``wsteenrod verify --max-stem 24 --out F`` on the
copy in a fresh interpreter.  The run must exit 1, write F, fail every
named report, and print no traceback.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "wsteenrod"

# (file, text that occurs exactly once, its replacement, the reports that fail)
FAULTS = {
    "antipode-doubling-shift": (
        "milnor.py",
        "acc = [c << 1 for c in antipode_monomial(",
        "acc = [c << 2 for c in antipode_monomial(",
        ("hopf_antipode_axiom", "conjugation_involution", "wbp_differential"),
    ),
    "times-without-tau-filter": (
        "milnor.py",
        "[x + y for y in ys if not x & y & taus]",
        "[x + y for y in ys]",
        ("hopf_antipode_axiom", "hopf_coassociativity", "conjugation_involution"),
    ),
    "delta-xi-power-drops-a-slot": (
        "milnor.py",
        "        for i in range(j + 1):\n            left = (c << i)",
        "        for i in range(j):\n            left = (c << i)",
        (
            "hopf_counit",
            "hopf_coassociativity",
            "hopf_antipode_axiom",
            "product_coproduct_duality",
        ),
    ),
    "delta-xi-power-unshifted-left": (
        "milnor.py",
        "left = (c << i) << _XI[j - i] if i < j else 0",
        "left = c << _XI[j - i] if i < j else 0",
        ("hopf_antipode_axiom", "hopf_coassociativity", "product_coproduct_duality"),
    ),
    "delta-tau-drops-one-tensor-tau": (
        "milnor.py",
        "for k in range(i + 1):",
        "for k in range(i):",
        (
            "hopf_counit",
            "hopf_coassociativity",
            "hopf_antipode_axiom",
            "product_coproduct_duality",
        ),
    ),
    "conjugate-parity-negated": (
        "milnor.py",
        "if (a.bits & row).bit_count() & 1:",
        "if not (a.bits & row).bit_count() & 1:",
        ("conjugation_involution", "wbp_differential"),
    ),
    "quotient-pivots-project-to-zero": (
        "modules.py",
        "rest = pivot_rows.get(i, 0) ^ (1 << i)",
        "rest = 0 if i in pivot_rows else 1 << i",
        ("change_of_rings", "wbp_complex", "wbp_differential"),
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_reports_the_planted_fault(tmp_path, fault):
    filename, text, replacement, failing = FAULTS[fault]
    package = tmp_path / "wsteenrod"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / filename
    source = path.read_text(encoding="utf-8")
    assert source.count(text) == 1, text
    path.write_text(source.replace(text, replacement), encoding="utf-8")
    out = tmp_path / "verify.json"
    proc = subprocess.run(
        [sys.executable, "-m", "wsteenrod.cli", "verify", "--max-stem", "24", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1"),
        timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert out.exists()
    reports = json.loads(out.read_text())["reports"]
    # a check may have several reports, one per parameter; one must fail
    failed = {r["check"] for r in reports if r["verdict"] == "fail"}
    assert set(failing) <= failed, failed
