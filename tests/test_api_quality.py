"""Library-wide API quality gates: documentation and export hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_callable_is_documented(module_name):
    """Every public function/class defined in the package has a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-export; documented at its definition site
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_method_is_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for class_name, member in vars(module).items():
        if class_name.startswith("_") or not inspect.isclass(member):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue
        for method_name, method in vars(member).items():
            if method_name.startswith("_"):
                continue
            if not (
                inspect.isfunction(method) or isinstance(method, property)
            ):
                continue
            target = method.fget if isinstance(method, property) else method
            if target is None or not (target.__doc__ and target.__doc__.strip()):
                undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, f"{module_name}: undocumented {undocumented}"


@pytest.mark.parametrize(
    "package_name",
    [
        "repro.common",
        "repro.core",
        "repro.data",
        "repro.datagen",
        "repro.maras",
        "repro.mining",
        "repro.baselines",
        "repro.bench",
        "repro.serve",
        "repro.service",
    ],
)
def test_all_exports_resolve(package_name):
    """Every name in a package's __all__ is actually importable."""
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} should define __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts[:2])
