import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import altrank


def test_no_assert_statements_in_the_package():
    """Mathematical checks must raise explicitly so that they survive python -O."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_perfbench_wrapped_names_exist(monkeypatch):
    """Every name the benchmark's tracer wraps resolves in the package, so a
    rename fails here rather than in ``perfbench/run.py --trace 1``.  The
    tracer's file is loaded read-only: no bytecode is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    missing = []
    for modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"altrank.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{modname}.{attr}")
        elif not callable(getattr(mod, attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, attr in spans.GENERATORS:
        fn = getattr(importlib.import_module(f"altrank.{modname}"), attr, None)
        if not inspect.isgeneratorfunction(fn):
            missing.append(f"{modname}.{attr}")
    if not callable(getattr(importlib.import_module("altrank._engine"), "resolve_threads", None)):
        missing.append("_engine.resolve_threads")
    assert missing == []


def test_perfbench_workload_calls_bind():
    """Every ``A.<name>(...)`` call in the benchmark's workloads binds to the
    signature of ``altrank.<name>``, so a dropped or renamed keyword fails
    here rather than in a benchmark run.  The file is parsed, not imported."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    bad, seen = [], 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id == "A"):
            continue
        seen += 1
        fn = getattr(altrank, func.attr, None)
        if not callable(fn):
            bad.append(f"workloads.py:{node.lineno}: altrank.{func.attr} is missing")
            continue
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            bad.append(f"workloads.py:{node.lineno}: altrank.{func.attr}: {exc}")
    assert seen and bad == []


def test_trusted_matrix_constructor_is_private():
    """``Matrix._trusted`` skips normalization, so only ``matrices.py`` (whose
    own arithmetic yields canonical entries) may call it; input from anywhere
    else goes through ``Matrix(...)``."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        if path.name == "matrices.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "_trusted(" in line:
                found.append(f"{path.name}:{lineno}")
    assert found == []


def test_analyze_privates_stay_in_analyze():
    """Other modules reach ``analyze`` through its public checks only, such as
    ``flanders_atkinson_check`` for a whole family of generators: no
    ``analyze._name`` attribute and no ``from .analyze import _name``."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        if path.name == "analyze.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "analyze" and node.attr.startswith("_")):
                found.append(f"{path.name}:{node.lineno}: analyze.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "analyze":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_spaces_privates_stay_in_spaces():
    """Other modules reach ``spaces`` through its public names only, such as
    ``nilpotent_flag`` for the nilpotent flag on a space's own stack: no
    ``spaces._name`` attribute and no ``from .spaces import _name``."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        if path.name == "spaces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "spaces" and node.attr.startswith("_")):
                found.append(f"{path.name}:{node.lineno}: spaces.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "spaces":
                found += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_no_floating_point_in_the_package():
    """Every module stays in integers and fractions: the kernels, the Hadamard
    bound and the prime search behind rational rank profiles, the pencil scans
    and the exact layer's divisions alike.  No float and no square root;
    ``math.isqrt`` is an integer square root."""
    token = re.compile(r"float\(|(?<!i)sqrt\(|\*\* 0\.5|np\.float")
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            found += [f"{path.name}:{lineno}: {m.group()}" for m in token.finditer(line)]
    assert found == []


def test_no_knobs_in_the_package():
    """Arguments and data alone set what a run does: no module reads the
    environment, and none imports a thread or process pool, so the tests and
    the benchmark run the one configuration there is."""
    env = re.compile(r"os\.environ|getenv")
    pools = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), 1):
            found += [f"{path.name}:{lineno}: {m.group()}" for m in env.finditer(line)]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else []
            found += [f"{path.name}:{node.lineno}: import {name}" for name in names if name.split(".")[0] in pools]
    assert found == []


def test_engine_and_spaces_reduce_arrays_through_mod():
    """``np.remainder`` on int64 is several times slower than ``_engine.mod``'s
    floor division, so it appears only inside ``mod`` (its small-array path)."""
    pkg = Path(altrank.__file__).parent
    found = []
    for name in ("_engine.py", "spaces.py"):
        tree = ast.parse((pkg / name).read_text(), filename=name)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "mod" and name == "_engine.py":
                inside |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "remainder" and id(node) not in inside:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_reduction_steps_appear_in_verdict_order():
    """A certificate's verdicts are true exactly before the step its failure
    record names, which is right only if the pipeline runs its steps in
    ``VERDICT_KEYS`` order: the ``"step"`` literals of ``reduction.py``, in
    source order, first appear in that order."""
    from altrank.reduction import VERDICT_KEYS

    path = Path(altrank.__file__).parent / "reduction.py"
    steps = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "step" and isinstance(value, ast.Constant):
                    steps.append((value.lineno, value.col_offset, value.value))
    first = list(dict.fromkeys(step for _, _, step in sorted(steps)))
    assert first == list(VERDICT_KEYS)


def test_every_export_is_reached():
    """The package is what its commands run: every name that ``altrank``
    exports is used by another package module (as a name or an attribute), or
    is named in the benchmark's sources, its tracer's targets included.  An
    oracle that only the tests use lives in ``tests/reference.py``."""
    pkg = Path(altrank.__file__).parent
    used = set()
    for path in sorted(pkg.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = "\n".join(p.read_text() for p in sorted((pkg.parents[1] / "perfbench").glob("*.py")))
    unreached = [
        name for name in altrank.__all__
        if not inspect.ismodule(getattr(altrank, name)) and name not in used
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert unreached == []


def test_engine_is_reached_through_analyze_and_spaces():
    """The int64 engine is a fast path that the exact layer cross-checks, so
    the package reaches it through two modules: only ``_engine.py``,
    ``analyze.py`` and ``spaces.py`` import numpy or ``_engine``, and only
    ``analyze.py`` names ``first_index``, whose hits it re-ranks in one place."""
    found = []
    for path in sorted(Path(altrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            if path.name not in ("_engine.py", "analyze.py", "spaces.py"):
                found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] in ("numpy", "_engine")]
            if path.name != "analyze.py" and "first_index" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.append(f"{path.name}:{node.lineno}: first_index")
    assert found == []
