"""Every name in a module's ``__all__`` exists, so ``from module import *`` succeeds."""
import pkgutil

import pytest

import dagranger

MODULES = ["dagranger", *sorted(info.name for info in
                                pkgutil.iter_modules(dagranger.__path__, "dagranger."))]


def test_every_module_is_checked():
    assert {"dagranger.errors", "dagranger.model", "dagranger.train"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    exec(f"from {name} import *", {})
