"""The reference kernels are a test oracle, never a runtime path.

An AST scan over ``src/repro``: no pipeline module may import
:mod:`repro.core.kernels.reference` (absolutely, relatively, or by
name through ``importlib``), and none may read the retired
``REPRO_KERNELS`` backend switch.  The oracle reaches the pipeline
only through the tests' own swap (:mod:`tests.kernels.oracle`), which
is checked here too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
ORACLE = "repro.core.kernels.reference"
RETIRED_ENV = "REPRO_KERNELS"


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(node, module: str, is_package: bool):
    """Fully qualified names an import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    package = module if is_package else module.rpartition(".")[0]
    if node.level:
        base = package.split(".")
        base = base[: len(base) - (node.level - 1)]
        if node.module:
            base.append(node.module)
        target = ".".join(base)
    else:
        target = node.module or ""
    return [target] + [f"{target}.{alias.name}" for alias in node.names]


def violations(root: Path):
    """``(file, line, what)`` for every oracle import or retired-env
    read in the ``repro`` package under ``root``."""
    found = []
    for path in sorted((root / "repro").rglob("*.py")):
        module = _module_name(path, root)
        if module == ORACLE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        is_package = path.name == "__init__.py"
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _imported(node, module, is_package):
                    if name == ORACLE or name.startswith(ORACLE + "."):
                        found.append((path, node.lineno, name))
            elif isinstance(node, ast.Constant) and node.value in (
                ORACLE, RETIRED_ENV,
            ):
                found.append((path, node.lineno, node.value))
    return found


def test_no_pipeline_module_imports_the_oracle():
    problems = violations(SRC)
    assert not problems, "\n".join(
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path, line, what in problems
    )


def test_scan_catches_every_spelling(tmp_path):
    """The scan itself must see each way a module could reach the
    oracle or the retired switch."""
    kernels = tmp_path / "repro" / "core" / "kernels"
    kernels.mkdir(parents=True)
    for package in (tmp_path / "repro", tmp_path / "repro" / "core",
                    kernels):
        (package / "__init__.py").write_text("")
    (kernels / "reference.py").write_text("REFERENCE = None\n")
    (kernels / "sibling.py").write_text("from . import reference\n")
    core = tmp_path / "repro" / "core"
    (core / "relative.py").write_text(
        "from .kernels.reference import REFERENCE\n"
    )
    (core / "absolute.py").write_text(
        "import repro.core.kernels.reference\n"
    )
    (core / "dynamic.py").write_text(
        "import importlib\n"
        "importlib.import_module('repro.core.kernels.reference')\n"
    )
    (core / "env.py").write_text(
        "import os\nos.environ.get('REPRO_KERNELS')\n"
    )
    (core / "clean.py").write_text("from .kernels import flat\n")
    flagged = {path.name for path, _line, _what in violations(tmp_path)}
    assert flagged == {
        "sibling.py", "relative.py", "absolute.py", "dynamic.py",
        "env.py",
    }


def test_oracle_arithmetic_reaches_the_pipeline(monkeypatch):
    """``tests.kernels.oracle`` swaps module attributes; if the
    pipeline stopped calling one of them, the oracle legs of the
    golden, stream and shard suites would silently test the
    production kernels twice."""
    import datetime as dt

    from repro.core import classify_dataset, estimate_probe_series
    from repro.timebase import MeasurementPeriod, TimeGrid
    from tests.kernels import oracle
    from tests.kernels.test_differential import (
        PERIOD,
        dirty_traceroutes,
        synthetic_dataset,
    )

    seen = set()

    def spy(name, fn):
        def called(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)
        return called

    monkeypatch.setattr(oracle, "SWAPS", tuple(
        (module, name, spy(name, fn)) for module, name, fn in oracle.SWAPS
    ))
    day = TimeGrid(MeasurementPeriod("d", dt.datetime(2019, 9, 2), 1))
    with oracle.reference_arithmetic():
        classify_dataset(synthetic_dataset(num_ases=2), PERIOD)
        estimate_probe_series(dirty_traceroutes(), day)
    assert seen == {name for _module, name, _fn in oracle.SWAPS}
