"""Repository-quality tests: docs exist, quickstart runs, API is importable."""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocumentsExist:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 2000, f"{name} looks stubby"

    def test_design_covers_every_subpackage(self):
        design = (REPO / "DESIGN.md").read_text()
        src = REPO / "src" / "repro"
        # Subpackages only: bytecode caches (``__pycache__``) are
        # directories too, and appear wherever Python writes bytecode.
        packages = sorted(p.name for p in src.iterdir() if (p / "__init__.py").is_file())
        assert packages
        for pkg in packages:
            assert f"repro.{pkg}" in design or f"{pkg}/" in design, (
                f"DESIGN.md does not mention subpackage {pkg}"
            )

    def test_experiments_covers_every_artifact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table 1", "Table 2", "Figure 7", "Example 1", "Example 2"):
            assert artifact in text


class TestReadmeQuickstart:
    def test_quickstart_code_runs(self):
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README has no python example"
        ns: dict = {}
        exec(blocks[0], ns)  # noqa: S102 - executing our own documentation
        assert "result" in ns

    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"`(\w+\.py)`", readme):
            assert (REPO / "examples" / match).exists(), match


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import importlib

        for pkg in ("cube", "faults", "simulator", "comm", "sorting", "core",
                    "baselines", "experiments", "analysis", "host", "obs",
                    "chaos"):
            mod = importlib.import_module(f"repro.{pkg}")
            for name in getattr(mod, "__all__", ()):
                assert hasattr(mod, name), f"repro.{pkg}.{name}"

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            mod = importlib.import_module(info.name)
            assert mod.__doc__ and len(mod.__doc__) > 40, (
                f"{info.name} lacks a real module docstring"
            )

    def test_version_is_semver(self):
        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
