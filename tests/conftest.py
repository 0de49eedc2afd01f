from __future__ import annotations

import json

import pytest
from hypothesis import settings

import infatom as ia
from infatom import dist

from _oracles import three_pair_pmf

# Every Hypothesis run draws the same examples, with no deadline and no
# example database, so a tier-1 run is reproducible on any machine.
settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def xor():
    return ia.xor_gate()


@pytest.fixture
def and_table():
    return ia.and_gate()


@pytest.fixture
def copies():
    return ia.copy_gate()


@pytest.fixture
def two_coins():
    return ia.two_coins_copy_gate()


@pytest.fixture
def three_pair():
    return ia.ProbTable.from_pmf(("X1", "X2", "X3"), three_pair_pmf(), (4, 4, 4))


@pytest.fixture
def marginal_passes(monkeypatch):
    """Selections passed to ``dist._marginal``, one entry per row pass."""
    passes = []
    real = dist._marginal

    def counting(table, idx):
        passes.append(idx)
        return real(table, idx)

    monkeypatch.setattr(dist, "_marginal", counting)
    return passes


@pytest.fixture
def made_up_xor_json():
    """A 3-row "decomposition" of xor with its synergistic and ghost atoms.

    Its rows ``{1}``, ``{1,2}`` and ``{1,2}{3}`` are not the 14 antichains
    over three variables, yet every one of the seven checks passes on them.
    """
    return json.dumps(
        {
            "n": 3,
            "redundancy_param": None,
            "atoms": [
                {"label": "Pi_s", "size": 1.0, "covering": 2},
                {"label": "Pi_g", "size": 1.0, "covering": 1},
            ],
            "table": {
                "rows": ["{1}", "{1,2}", "{1,2}{3}"],
                "cols": ["Pi_s", "Pi_g"],
                "entries": [[1, 0], [1, 1], [1, 0]],
            },
        }
    )
