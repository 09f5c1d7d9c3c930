import importlib

import frobsig


def test_every_export_resolves_to_its_module():
    # the package imports each public name lazily, so a stale entry in its
    # table would fail only on first access
    assert len(frobsig.__all__) == len(set(frobsig.__all__))
    for module, names in frobsig._EXPORTS.items():
        home = importlib.import_module(f"frobsig.{module}")
        for name in names:
            value = getattr(frobsig, name)
            assert value is getattr(home, name), name
            assert value.__module__ == home.__name__, name
    assert sorted(frobsig.__all__) == sorted(
        name for names in frobsig._EXPORTS.values() for name in names
    )
