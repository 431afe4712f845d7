import ast
from pathlib import Path
from types import ModuleType

import zeckblocks


def test_every_export_resolves_and_is_listed_once():
    names = zeckblocks.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(zeckblocks, name), name


def test_all_is_every_name_the_package_imports_from_its_modules():
    # read from the source, not from the rule that builds __all__: a public
    # name imported from a submodule but left out of __all__ fails here
    tree = ast.parse(Path(zeckblocks.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert zeckblocks.__all__ == imported + ["__version__"]


def test_all_is_the_public_namespace_less_its_submodules():
    public = {name for name, value in vars(zeckblocks).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(zeckblocks.__all__) - {"__version__"}
