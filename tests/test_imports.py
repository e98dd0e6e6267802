"""Cold start: each entry point imports only the layers it runs.

Package ``__init__``s re-export their public names lazily (PEP 562,
``repro._lazy_exports``), the cleaning core runs without numpy, and
networkx is an optional extra.  Import footprints are checked in fresh
interpreters, since this test process has imported everything already.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


def loaded_after(statement: str) -> dict:
    """Run ``statement`` in a fresh interpreter; report what it loaded."""
    script = (f"import json, sys\n{statement}\n"
              "print(json.dumps(sorted(sys.modules)))")
    environ = dict(os.environ)
    environ["PYTHONPATH"] = str(SRC) + os.pathsep + environ.get(
        "PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=environ, timeout=120)
    assert run.returncode == 0, run.stderr
    *printed, modules = run.stdout.strip().splitlines()
    return {"printed": printed, "modules": set(json.loads(modules))}


class TestImportFootprint:
    def test_import_repro_loads_no_submodule(self):
        modules = loaded_after("import repro")["modules"]
        assert sorted(m for m in modules if m.startswith("repro")) == ["repro"]

    # A shard worker imports repro.runtime.shards and reads its
    # constraints through repro.io.jsonio.
    @pytest.mark.parametrize("module", ["repro.runtime.shards", "repro.cli",
                                        "repro.io.jsonio"])
    def test_entry_point_loads_neither_numpy_nor_networkx(self, module):
        modules = loaded_after(f"import {module}")["modules"]
        assert module in modules
        assert "numpy" not in modules
        assert "networkx" not in modules

    def test_flat_build_loads_no_numpy(self):
        found = loaded_after(
            "from repro import ConstraintSet, LSequence, Unreachable\n"
            "from repro.core.algorithm import CleaningOptions, "
            "build_ct_graph\n"
            "graph = build_ct_graph(\n"
            "    LSequence([{'A': 0.5, 'B': 0.5}, {'B': 0.6, 'C': 0.4}]),\n"
            "    ConstraintSet([Unreachable('A', 'C')]),\n"
            "    CleaningOptions(materialize='flat', backend='numpy'))\n"
            "print(graph.num_edges)")
        assert found["printed"] == ["3"]
        assert "numpy" not in found["modules"]


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            getattr(module, name)
            assert name in listed, name

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_subpackages_are_attributes(self):
        assert repro.runtime.clean_many is repro.clean_many
        assert repro.store.format.load_ctg is repro.store.load_ctg

    @pytest.mark.parametrize("package", ["repro", "repro.core"])
    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"'{package}'.*'no_such'"):
            module.no_such

    @pytest.mark.parametrize("package", PACKAGES)
    def test_type_checking_imports_match_the_table(self, package):
        """Static tools read the ``if TYPE_CHECKING:`` imports and the
        runtime reads the table; both must name the same sources, and
        every name must be in ``__all__``."""
        init = SRC.joinpath(*package.split("."), "__init__.py")
        static, table, public = {}, {}, set()
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == \
                    "TYPE_CHECKING":
                for line in node.body:
                    static.update((alias.name, line.module)
                                  for alias in line.names)
            elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.List):
                public = set(ast.literal_eval(node.value))
            elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                exports = ast.literal_eval(node.value.args[1])
                table = {name: source for source, names in exports.items()
                         for name in names}
        assert static == table
        assert set(table) == public - {"__version__"}
