"""The public surface: every exported name resolves, removed ones stay gone,
and every name the benchmark's tracer patches is still there."""

import importlib.util
from pathlib import Path

import pacta
from pacta import game, logic, model, oracle


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
        (pacta, "interleave"),
        (pacta, "ensure_valid"),
        (model, "ensure_valid"),
        (game.RuleIndex, "prudent"),
        (game, "_checked_events"),
    ):
        assert not hasattr(module, name), name
    assert oracle.RULES == ("Id", "ArrowE", "CArrowE")


def test_every_name_the_benchmark_tracer_patches_exists_and_is_restored():
    """``perfbench/tracer.py`` replaces functions and methods by name, so one
    that a cleanup removes breaks the traced benchmark run.  Each must be
    defined on its owner, replaced inside ``instrument`` and back after it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    found = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracer)
    patched = [(owner, attr) for _, owners, attr, _ in tracer.TARGETS for owner in owners]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in patched if attr not in vars(owner)]
    assert missing == []
    originals = [vars(owner)[attr] for owner, attr in patched]
    with tracer.instrument(tracer.Tracer()):
        for (owner, attr), original in zip(patched, originals):
            assert vars(owner)[attr] is not original, (owner.__name__, attr)
    for (owner, attr), original in zip(patched, originals):
        assert vars(owner)[attr] is original, (owner.__name__, attr)
