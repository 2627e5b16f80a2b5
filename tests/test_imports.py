"""Import budget: what the package and the CLI load, checked in fresh
interpreters and, for the module-level imports, in the source.

The automorphism subcommands (``classify``, ``compose``, ``iterate``,
``commutant``) and ``equiv`` on finite specs must run without numpy and
without ``dataclasses`` (whose ``inspect`` loads ``ast``, ``dis`` and
``tokenize``: the records of these requests are slot classes), every
successful request without jsonschema, and the lazy top-level names of
``hpiso`` must be exactly those of the modules they come from.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hpiso
from hpiso import conjugated_spec, disc_translation, identity, normalized_factor, standard_hyperbolic
from hpiso import serialize as ser
from hpiso.spec import IsometrySpec

SRC = str(Path(hpiso.__file__).resolve().parent.parent)

PHI = '{"lambda":{"re":0,"im":1},"a":{"re":0.5,"im":0.5}}'
PSI = '{"lambda":{"re":1,"im":0},"a":{"re":0.5,"im":0}}'


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: modules a numpy-free request must not load; ``dataclasses`` brings
#: ``inspect``, which brings ``ast``, ``dis`` and ``tokenize``
WATCHED = ("numpy", "jsonschema", "hpiso.blaschke", "hpiso.hardy", "dataclasses", "inspect")
#: expression, in the child, for which of them are loaded
LOADED = f"{{m: m in sys.modules for m in {WATCHED!r}}}"
NONE_LOADED = dict.fromkeys(WATCHED, False)

#: modules that must not import numpy, jsonschema, dataclasses or a numpy
#: module of the package when they load (they may inside functions)
NUMPY_FREE = ("errors", "_record", "moebius", "serialize", "cli", "spec", "equivalence")
HEAVY = {"numpy", "jsonschema", "dataclasses", "hpiso.blaschke", "hpiso.hardy", "hpiso.isometries"}


def spec_of(*zeros, phi) -> IsometrySpec:
    return IsometrySpec(3.0, 1.0, tuple(map(normalized_factor, zeros)), phi)


def as_json(spec: IsometrySpec) -> str:
    return ser.dumps(ser.spec_to_json(spec))


def test_cli_import_loads_neither_numpy_nor_jsonschema():
    got = run_python(f"import json, sys\nimport hpiso.cli\nprint(json.dumps({LOADED}))")
    assert got == NONE_LOADED


def test_automorphism_subcommands_run_without_numpy():
    requests = [
        ["classify", "--phi", PHI],
        ["compose", "--outer", PHI, "--inner", PSI],
        ["iterate", "--phi", PHI, "--n", "5", "--at", '{"re":0.1,"im":0.2}'],
        ["commutant", "--phi", PSI, "--t", "-1e-3"],
    ]
    code = (
        "import json, sys\nimport hpiso.cli\n"
        f"codes = [hpiso.cli.main(argv) for argv in {requests!r}]\n"
        f"print(json.dumps({{'codes': codes, 'loaded': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["codes"] == [0, 0, 0, 0]
    assert got["loaded"] == NONE_LOADED


def test_schema_violation_loads_jsonschema_and_exits_2():
    code = (
        "import json, sys\nimport hpiso.cli\n"
        "c = hpiso.cli.main(['classify', '--phi', '{\"lambda\": {\"re\": 1}}'])\n"
        f"print(json.dumps({{'code': c, 'loaded': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["code"] == 2
    # jsonschema itself loads dataclasses and inspect
    assert got["loaded"] == {**NONE_LOADED, "jsonschema": True, "dataclasses": True, "inspect": True}


def test_equiv_runs_without_numpy():
    hyp = spec_of(0.3, -0.2 + 0.4j, phi=standard_hyperbolic(0.5))
    conjugated = conjugated_spec(hyp, disc_translation(0.2 + 0.1j), 1j)
    near, far = spec_of(0.1, -0.1, phi=identity()), spec_of(0.8, -0.8, phi=identity())
    requests = [
        ["equiv", "--s1", as_json(hyp), "--s2", as_json(conjugated)],  # equivalent
        ["equiv", "--s1", as_json(near), "--s2", as_json(far)],  # identity ambiguity
    ]
    code = (
        "import contextlib, io, json, sys\nimport hpiso.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    codes = [hpiso.cli.main(argv) for argv in {requests!r}]\n"
        "results = [json.loads(line)['equivalent'] for line in out.getvalue().splitlines()]\n"
        f"print(json.dumps({{'codes': codes, 'results': results, 'loaded': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["codes"] == [0, 3] and got["results"] == [True, None]
    assert got["loaded"] == NONE_LOADED


def test_finite_spec_verify_loads_neither_isometries_nor_blaschke():
    # only an infinite construction needs truncate_spec and the orbit walks
    finite = as_json(spec_of(0.3, 0.2j, phi=standard_hyperbolic(0.5)))
    code = (
        "import contextlib, io, json, sys\nimport hpiso.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = hpiso.cli.main(['verify', '--spec', {finite!r}])\n"
        "loaded = {m: m in sys.modules for m in ('hpiso.hardy', 'hpiso.isometries', 'hpiso.blaschke')}\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))"
    )
    got = run_python(code)
    assert got == {"code": 0, "loaded": {"hpiso.hardy": True, "hpiso.isometries": False, "hpiso.blaschke": False}}


def test_finite_spec_round_trip_loads_no_numpy():
    code = (
        "import json, sys\nfrom hpiso import serialize as ser\n"
        f"spec = ser.spec_from_json(json.loads({as_json(spec_of(0.3, 0.2j, phi=standard_hyperbolic(0.5)))!r}))\n"
        "assert ser.spec_from_json(ser.spec_to_json(spec)) == spec\n"
        f"print(json.dumps({LOADED}))"
    )
    assert run_python(code) == NONE_LOADED


def test_inner_values_loads_the_grid_kernel_on_first_use():
    code = (
        "import json, sys\nfrom hpiso.spec import IsometrySpec\n"
        "from hpiso.moebius import disc_translation, eval_auto, identity, rotation\n"
        "facs = (disc_translation(0.3), rotation(1j), disc_translation(-0.5j))\n"
        "spec = IsometrySpec(3.0, 1.0, facs, identity())\n"
        f"before = {LOADED}\n"
        "z = 0.2 - 0.1j\n"
        "got, want = spec.inner_values(z), eval_auto(facs[0], z) * eval_auto(facs[1], z) * eval_auto(facs[2], z)\n"
        f"print(json.dumps({{'gap': abs(got - want), 'before': before, 'after': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["gap"] < 1e-15
    assert got["before"] == NONE_LOADED
    assert got["after"]["numpy"] and got["after"]["hpiso.hardy"]


def test_from_import_of_a_submodule_stays_lazy():
    # ``from hpiso import serialize`` first asks the package's __getattr__,
    # which must answer without importing the numpy modules
    code = (
        "import json, sys\nimport hpiso\nfrom hpiso import serialize, cli\n"
        f"before = {LOADED}\n"
        "hpiso.ZeroSequence\n"
        f"print(json.dumps({{'before': before, 'after': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["before"] == NONE_LOADED
    assert got["after"]["numpy"] and got["after"]["hpiso.blaschke"]


def test_star_import_binds_every_public_name():
    code = (
        "import json\nimport hpiso\nns = {}\nexec('from hpiso import *', ns)\n"
        "print(json.dumps({'star': sorted(k for k in ns if k != '__builtins__'), "
        "'all': sorted(hpiso.__all__)}))"
    )
    got = run_python(code)
    from hpiso import blaschke, equivalence, errors, hardy, isometries, moebius, spec

    want = {"__version__"}
    for module in (moebius, blaschke, spec, hardy, isometries, equivalence, errors):
        want.update(module.__all__)
    assert set(got["star"]) == want
    assert set(got["all"]) == want and len(got["all"]) == len(want)


def test_lazy_name_lists_match_module_all():
    from hpiso import blaschke, equivalence, hardy, isometries, spec

    assert set(hpiso._LAZY) == {"blaschke", "spec", "hardy", "isometries", "equivalence"}
    for module in (blaschke, spec, hardy, isometries, equivalence):
        short = module.__name__.rsplit(".", 1)[1]
        assert list(hpiso._LAZY[short]) == list(module.__all__)
        for name in module.__all__:
            assert getattr(hpiso, name) is getattr(module, name)
    assert "ZeroSequence" in dir(hpiso) and "blaschke" in dir(hpiso)


def test_no_module_imports_private_moebius_names():
    # the chart helpers stay behind ``Chart``: other modules use its methods
    offenders = []
    for path in sorted(Path(hpiso.__file__).resolve().parent.glob("*.py")):
        if path.stem == "moebius":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "moebius" and node.level == 1:
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


def _module_level_imports(tree):
    """``(lineno, module)`` of every import run when the module loads: all
    but those inside functions and under ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else ".".join(filter(None, ("hpiso", node.module)))
            yield node.lineno, module
            if module == "hpiso":  # ``from . import hardy``, or a name the package loads lazily
                yield from ((node.lineno, f"hpiso.{hpiso._HOME.get(a.name, a.name)}") for a in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_free_modules_import_nothing_heavy_at_load():
    # a stray top-level import would put numpy back on every equiv request
    root = Path(hpiso.__file__).resolve().parent
    offenders = []
    for stem in NUMPY_FREE:
        path = root / f"{stem}.py"
        for lineno, module in _module_level_imports(ast.parse(path.read_text(), str(path))):
            if module in HEAVY or module.split(".")[0] in HEAVY:
                offenders.append(f"{path.name}:{lineno}: imports {module}")
    assert not offenders, "module-level imports of heavy modules:\n" + "\n".join(offenders)
