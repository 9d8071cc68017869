"""The benchmark's workloads and the reference outputs every run is checked against.

Each workload is one cold ``wsteenrod`` run: the arguments of bench/child.py,
which mirrors the ``resolve`` command and ``run_suites``.  The two resolve
workloads are deterministic and ignore the seed; verify-32 passes it to
VerifyConfig, which draws its random samples from it.
"""

from __future__ import annotations

WORKLOADS = {
    # Free-module path: mult_table, FreeModule.layout/dim and gf2
    # elimination dominate; where resolver changes should show.
    "sphere-32": ["resolve", "--module", "sphere", "--max-stem", "32", "--max-filt", "20"],
    # Quotient target: 6x fewer but larger mult tables and cold
    # coproduct_monomial; shows a table precompute that costs here.
    "wbp-36": ["resolve", "--module", "wbp", "--max-stem", "36", "--max-filt", "36"],
    # Mostly the Hopf suite reading coproducts and antipodes directly;
    # resolver-only changes should leave it flat.
    "verify-32": ["verify", "--max-stem", "32"],
}

# SHA-256 of the chart file bytes written at the commit that defined the
# benchmark; a run whose chart differs has failed.
REFERENCE_SHA256 = {
    "sphere-32": "372875a357f49d8a72beffe4b32e7ffb6e2d0e0907f6e6ed0dda6ca7f80da059",
    "wbp-36": "a2eec9d161d1f6804f146da89a557a5d4dc412e21be41b4d0f133b64da55c02f",
}

# verify-32 passes when every report passes, for every seed.
REFERENCE_VERDICT = {"verify-32": "pass"}
