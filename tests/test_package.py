"""The package surface is the union of its modules' ``__all__`` lists."""

import importlib

import centrolab as cl

MODULES = ("centro", "eig", "errors", "fluctuation", "oracle", "poly", "variance")


def test_surface_is_the_union_of_module_lists():
    owners: dict[str, str] = {}
    for name in MODULES:
        module = importlib.import_module(f"centrolab.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} in both {owners.get(public)} and {name}"
            owners[public] = name
            assert getattr(cl, public) is getattr(module, public)
    assert sorted(cl.__all__) == sorted(owners)
    assert len(cl.__all__) == len(set(cl.__all__))
