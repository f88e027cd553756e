import types

import hapsim


def test_all_lists_exactly_the_public_names():
    for name in hapsim.__all__:
        assert hasattr(hapsim, name), name
    public = {name for name, value in vars(hapsim).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(hapsim.__all__)
    assert len(hapsim.__all__) == len(set(hapsim.__all__))
