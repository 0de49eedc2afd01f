from __future__ import annotations

import pytest

import infatom as ia
from infatom import dist

from _oracles import three_pair_pmf


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
