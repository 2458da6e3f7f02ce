"""The package namespace: lazy re-exports of each module's ``__all__``, and
which modules an import or a CLI run loads."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import compound_bcc

MODULES = ("errors", "linalg", "sdof", "regions", "theory", "channel", "gaussian", "ergodic")


@pytest.mark.parametrize("module", MODULES)
def test_package_resolves_module_all(module):
    mod = importlib.import_module(f"compound_bcc.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert getattr(compound_bcc, name) is getattr(mod, name)


def test_dir_lists_exports_and_version():
    names = [
        name
        for module in MODULES
        for name in importlib.import_module(f"compound_bcc.{module}").__all__
    ]
    assert len(names) == len(set(names))  # no name is exported by two modules
    assert dir(compound_bcc) == sorted([*names, "__version__"])


def test_star_import_binds_every_export():
    namespace = {}
    exec("from compound_bcc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(n for n in dir(compound_bcc) if n != "__version__")


@pytest.mark.parametrize("name", [
    "no_such_name", "_private", "__wrapped__", "check_count",
    # test references in tests/reference.py, not exports
    "rate_common", "rate_confidential", "rate_leakage", "swap_users",
    "tx_rate", "leakage",
])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(compound_bcc, name)


def loaded_modules(code):
    """Package modules in sys.modules after ``code`` runs in a fresh interpreter."""
    script = (
        f"import sys\n{code}\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('compound_bcc'))))"
    )
    src = os.path.dirname(os.path.dirname(compound_bcc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_run(argv, tmp_path):
    args = [*argv, "--out", str(tmp_path)]
    return f"from compound_bcc.cli import main\nassert main({args!r}) == 0"


def test_import_loads_only_the_shared_base():
    assert loaded_modules("import compound_bcc") == {
        "compound_bcc", "compound_bcc.errors", "compound_bcc.linalg",
    }


@pytest.mark.parametrize("argv, present, absent", [
    # fewer draws per attempt than REPLAY_MIN: each from its own generator
    (["verify-channel", "--M", "3", "--J1", "4", "--J2", "4"],
     "channel", {"ergodic", "gaussian", "regions", "seeding"}),
    (["gaussian", "--trials", "2"], "gaussian", {"ergodic", "seeding"}),
    (["gaussian", "--trials", "12"], "seeding", {"ergodic"}),
    (["ergodic", "--blocks", "200"], "ergodic", {"gaussian", "seeding"}),
])
def test_cli_run_loads_only_its_pipeline(argv, present, absent, tmp_path):
    loaded = loaded_modules(cli_run(argv, tmp_path))
    assert f"compound_bcc.{present}" in loaded
    assert not loaded & {f"compound_bcc.{m}" for m in absent}


BASE = ("errors", "linalg", "cli", "sdof")


@pytest.mark.parametrize("argv, modules", [
    # the analytic commands load no simulation module
    (["compare", "--M", "7", "--J1", "8", "--J2", "8"], ("regions", "theory")),
    (["region"], ("regions", "theory")),
    (["region", "--model", "ergodic"], ("regions", "theory")),
    (["verify-channel", "--M", "3", "--J1", "4", "--J2", "4"], ("channel", "rankcheck")),
])
def test_cli_run_loads_exactly(argv, modules, tmp_path):
    loaded = loaded_modules(cli_run(argv, tmp_path))
    assert loaded == {"compound_bcc", *(f"compound_bcc.{m}" for m in BASE + modules)}


# numpy.linalg._umath_linalg made unimportable, as a numpy that renamed it
HIDE_LSTSQ_MODULE = (
    "import numpy.linalg\n"
    "del numpy.linalg._umath_linalg\n"
    "sys.modules['numpy.linalg._umath_linalg'] = None\n"
)


@pytest.mark.parametrize("argv", [
    ["compare", "--M", "7", "--J1", "8", "--J2", "8"],
    ["region"],
    ["verify-channel", "--M", "3", "--J1", "4", "--J2", "4"],
])
def test_commands_without_a_slope_fit_run_without_the_private_lstsq(argv, tmp_path):
    # only sdof._fit_stack imports that private name
    assert "compound_bcc.sdof" in loaded_modules(HIDE_LSTSQ_MODULE + cli_run(argv, tmp_path))


def test_a_slope_fit_needs_the_private_lstsq(tmp_path):
    with pytest.raises(subprocess.CalledProcessError) as exc:
        loaded_modules(HIDE_LSTSQ_MODULE + cli_run(["gaussian", "--trials", "2"], tmp_path))
    assert "import of numpy.linalg._umath_linalg halted" in exc.value.stderr


NUMPY_FREE = ("theory", "regions", "errors")


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_exact_modules_import_no_numpy(module):
    # at module level: no numpy, and of the package only these modules
    path = os.path.join(os.path.dirname(compound_bcc.__file__), f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
    assert {name[1:] for name in imported if name.startswith(".")} <= set(NUMPY_FREE)


def test_lazy_name_loads_its_module():
    loaded = loaded_modules("from compound_bcc import generate_compound")
    assert "compound_bcc.channel" in loaded
    assert not loaded & {"compound_bcc.gaussian", "compound_bcc.ergodic"}


def test_cli_imports_no_private_package_name():
    # the CLI reaches the library through public names only
    path = os.path.join(os.path.dirname(compound_bcc.__file__), "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "compound_bcc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
