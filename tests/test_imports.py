"""Import budget: what the package and the CLI load, checked in fresh
interpreters.

The automorphism subcommands (``classify``, ``compose``, ``iterate``,
``commutant``) must run without numpy, every successful request without
jsonschema, and the lazy top-level names of ``hpiso`` must be exactly those
of the modules they come from.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import hpiso

SRC = str(Path(hpiso.__file__).resolve().parent.parent)

PHI = '{"lambda":{"re":0,"im":1},"a":{"re":0.5,"im":0.5}}'
PSI = '{"lambda":{"re":1,"im":0},"a":{"re":0.5,"im":0}}'


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


#: expression, in the child, for which of the heavy modules are loaded
LOADED = "{m: m in sys.modules for m in ('numpy', 'jsonschema', 'hpiso.blaschke')}"


def test_cli_import_loads_neither_numpy_nor_jsonschema():
    got = run_python(f"import json, sys\nimport hpiso.cli\nprint(json.dumps({LOADED}))")
    assert got == {"numpy": False, "jsonschema": False, "hpiso.blaschke": False}


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
    assert got["loaded"] == {"numpy": False, "jsonschema": False, "hpiso.blaschke": False}


def test_schema_violation_loads_jsonschema_and_exits_2():
    code = (
        "import json, sys\nimport hpiso.cli\n"
        "c = hpiso.cli.main(['classify', '--phi', '{\"lambda\": {\"re\": 1}}'])\n"
        f"print(json.dumps({{'code': c, 'loaded': {LOADED}}}))"
    )
    got = run_python(code)
    assert got["code"] == 2
    assert got["loaded"] == {"numpy": False, "jsonschema": True, "hpiso.blaschke": False}


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
    assert got["before"] == {"numpy": False, "jsonschema": False, "hpiso.blaschke": False}
    assert got["after"]["numpy"] and got["after"]["hpiso.blaschke"]


def test_star_import_binds_every_public_name():
    code = (
        "import json\nimport hpiso\nns = {}\nexec('from hpiso import *', ns)\n"
        "print(json.dumps({'star': sorted(k for k in ns if k != '__builtins__'), "
        "'all': sorted(hpiso.__all__)}))"
    )
    got = run_python(code)
    from hpiso import blaschke, errors, hardy, isometries, moebius

    want = {"__version__"}
    for module in (moebius, blaschke, hardy, isometries, errors):
        want.update(module.__all__)
    assert set(got["star"]) == want
    assert set(got["all"]) == want and len(got["all"]) == len(want)


def test_lazy_name_lists_match_module_all():
    from hpiso import blaschke, hardy, isometries

    for module in (blaschke, hardy, isometries):
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
