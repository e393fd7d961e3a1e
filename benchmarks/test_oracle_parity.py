"""End-to-end parity of the multiplier search with its scalar test oracle.

Each case runs one ``repro`` command in process at the scale the CLI runs
by default, once as it is and once with every multiplier search routed
through the probe-sequential scalar oracle
(:func:`tests.mu_search_scalar_reference.scalar_oracle`), and requires the
two CSVs to be byte-identical.  The cases cover the sweeps whose lanes take
every path into the search (fig3's ``w1`` grid, fig7's hard-deadline lanes
and one-lane baselines, the ablation's variants, the samples sweep) and
the closed FL loop with churn, battery drain, estimated profiles and
deadline-k selection.  The sweeps run serially with the cache off, so
every search really runs, in this process, under the oracle.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from tests.mu_search_scalar_reference import scalar_oracle

_CHURN = ["--churn", "poisson:arrive=0.4,depart=0.3,absent=0.25", "--battery", "50"]

CASES = {
    "fig3": ["run", "fig3", "--no-cache"],
    "fig7": ["run", "fig7", "--no-cache"],
    "ablation": ["run", "ablation", "--no-cache"],
    "samples": ["run", "samples", "--no-cache"],
    "fl-churn": ["fl", "--quick", *_CHURN],
    "fl-churn-estimated-deadline-k": [
        "fl", "--quick", *_CHURN, "--estimate-profiles", "--selection", "deadline-k"
    ],
}


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_cli_csv_is_byte_identical_under_the_scalar_oracle(argv, tmp_path, capsys):
    library, oracle = tmp_path / "library.csv", tmp_path / "oracle.csv"
    assert main([*argv, "--csv", str(library)]) == 0
    with scalar_oracle():
        assert main([*argv, "--csv", str(oracle)]) == 0
    capsys.readouterr()
    assert library.read_bytes() == oracle.read_bytes()
