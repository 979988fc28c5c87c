"""Every name in a module's ``__all__`` exists, so ``from module import *`` succeeds,
and the package's only exception classes are the two of ``dagranger.errors``."""
import ast
import builtins
import pkgutil
from pathlib import Path

import pytest

import dagranger

MODULES = ["dagranger", *sorted(info.name for info in
                                pkgutil.iter_modules(dagranger.__path__, "dagranger."))]


def test_every_module_is_checked():
    assert {"dagranger.errors", "dagranger.model", "dagranger.train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    exec(f"from {name} import *", {})


def test_only_config_error_and_data_error_are_exception_classes():
    # one class per exit code of the command line: ConfigError 2, DataError 3
    source = Path(dagranger.__file__).parent
    classes = [(path.relative_to(source).as_posix(), node)
               for path in sorted(source.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    found: set[tuple[str, str]] = set()
    while True:  # a class derived from one found is found too
        more = {(path, node.name) for path, node in classes
                if {getattr(base, "attr", getattr(base, "id", None))
                    for base in node.bases} & exceptions}
        if more <= found:
            break
        found |= more
        exceptions |= {name for _, name in more}
    assert found == {("errors.py", "ConfigError"), ("errors.py", "DataError")}
