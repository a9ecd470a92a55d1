"""The public surface: every exported name resolves, removed ones stay gone."""

import pacta
from pacta import game, logic, oracle


def test_exports_resolve_and_removed_names_are_gone():
    assert len(set(pacta.__all__)) == len(pacta.__all__)
    for name in pacta.__all__:
        assert getattr(pacta, name) is not None, name
    for module, name in (
        (pacta, "enables"),
        (game, "enables"),
        (pacta, "reach_atoms"),
        (logic, "reach_atoms"),
        (pacta.ContractSpec, "is_conflict_free"),
    ):
        assert not hasattr(module, name), name
    assert oracle.RULES == ("Id", "ArrowE", "CArrowE")
