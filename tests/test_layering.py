"""Package layering of ``src/repro``, read from the source.

Every ``import`` statement — module-level *and* function-local, which is
where upward imports hide — is an edge from the importing package to the
imported one.  A package may import its own layer and the layers below:

    geometry / imaging / utils / errors
    → mcmc
    → partitioning / parallel / core
    → engine / bench
    → service
    → cluster
    → gateway
    → cli (and the ``repro`` package facade, ``__main__``)

``obs`` sits outside the stack: every package may import it, and it
imports no other package.

``ALLOWED_UPWARD`` lists the upward edges that still exist.  It can only
shrink: a new upward edge fails, and so does an entry whose edge is gone.
(``tests/service/test_import_isolation.py`` checks what a backend loads at
run time, which a source scan cannot see.)
"""

import ast
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.fast

SRC = Path(repro.__file__).resolve().parent

LAYERS = [
    {"geometry", "imaging", "utils", "errors", "_version"},
    {"mcmc"},
    {"partitioning", "parallel", "core"},
    {"engine", "bench"},
    {"service"},
    {"cluster"},
    {"gateway"},
    {"cli", "__main__", "repro"},
]
LEVEL = {name: i for i, names in enumerate(LAYERS) for name in names}

#: (importing module, imported module) for each upward edge not yet removed.
ALLOWED_UPWARD = {
    ("repro.cluster.local", "repro.gateway.server"),
    ("repro.cluster.local", "repro.gateway.client"),
}


def _module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package(module: str) -> str:
    """``repro.engine.cache`` → ``engine``; the facade ``repro`` → ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _imported_modules(path: Path, module: str):
    """Every ``repro`` module *path* imports, with its line number."""
    is_package = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module.split(".")
                keep = len(base) - node.level + (1 if is_package else 0)
                target = ".".join(base[:keep] + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            yield target, node.lineno


def _edges():
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        for target, line in _imported_modules(path, module):
            if target == "repro" or target.startswith("repro."):
                yield module, target, f"{path.relative_to(SRC.parent)}:{line}"


EDGES = list(_edges())


def test_every_package_has_a_layer():
    packages = {_package(m) for m, _, _ in EDGES} | {_package(t) for _, t, _ in EDGES}
    assert packages - set(LEVEL) - {"obs"} == set()


def test_no_upward_imports_beyond_the_allow_list():
    upward = sorted(
        f"{where}: {module} -> {target}"
        for module, target, where in EDGES
        if _package(module) != "obs" and _package(target) != "obs"
        and LEVEL[_package(target)] > LEVEL[_package(module)]
        and (module, target) not in ALLOWED_UPWARD
    )
    assert upward == []


def test_allow_list_entries_still_occur():
    present = {(module, target) for module, target, _ in EDGES}
    assert sorted(ALLOWED_UPWARD - present) == []


def test_obs_imports_no_other_package():
    outward = sorted(
        f"{where}: {module} -> {target}"
        for module, target, where in EDGES
        if _package(module) == "obs" and _package(target) != "obs"
    )
    assert outward == []
