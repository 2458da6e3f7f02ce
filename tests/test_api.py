"""The package namespace: lazy re-exports of each module's ``__all__``, and
which modules an import or a CLI run loads."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import compound_bcc
from compound_bcc import ergodic, linalg, sdof

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


def test_no_export_takes_a_rank_threshold_or_resample_budget():
    # the rank threshold is linalg.RANK_RTOL and the budget
    # channel.MAX_RESAMPLES: module constants, not options
    for name in dir(compound_bcc):
        obj = getattr(compound_bcc, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        names = set(inspect.signature(obj).parameters)
        if dataclasses.is_dataclass(obj):
            names |= {f.name for f in dataclasses.fields(obj)}
        assert not names & {"tol", "max_resamples"}, name
    assert not hasattr(linalg, "RankTolerance") and not hasattr(linalg, "DEFAULT_TOL")


def test_no_export_takes_a_horizon_or_keeps_an_unread_field():
    # a run's one horizon is its process's block_count; linalg's functions
    # name their matrix argument m, which is no horizon
    for name in ergodic.__all__:
        obj = getattr(ergodic, name)
        if inspect.isfunction(obj):
            assert "m" not in inspect.signature(obj).parameters, name
    assert "m" not in inspect.signature(ergodic._simulate).parameters
    fields = {cls: {f.name for f in dataclasses.fields(getattr(compound_bcc, cls))}
              for cls in ("ErgodicRunStats", "RateRegion")}
    assert "state_records" not in fields["ErgodicRunStats"]
    assert "downward_closed" not in fields["RateRegion"]
    assert not hasattr(sdof, "fit_sdof_stack")


def test_no_cholesky_log_det_or_its_errors_are_exported():
    # the constant model's log-dets are sums over singular values, which
    # neither need a Hermitian input nor fail to factor
    for name in ("logdet2_hpd", "NotHermitianError", "NotPositiveDefiniteError"):
        assert not hasattr(compound_bcc, name), name
        assert name not in compound_bcc.__all__
    for name in ("logdet2_hpd", "_hermitian_error", "_first_failing_minor", "HERMITIAN_RTOL"):
        assert not hasattr(linalg, name), name
    for name in ("_gram", "_grams", "_logdet_i_plus", "_worst_case_stack"):
        assert not hasattr(compound_bcc.gaussian, name), name


def near_dependent_nulled_rows():
    """A single-antenna set (M = 3, J = 2) whose user 2 states, both nulled
    for stream 1, have rank 1 at RANK_RTOL = 1e-10 and rank 2 at 1e-12:
    their singular values are about 5e-12 apart."""
    h1 = (np.array([[1.0, 2.0, 3.0j]]), np.array([[2.0j, 1.0, 1.0]]))
    h2 = (np.array([[1e4, 0.0, 0.0]]), np.array([[1e4, 1e-7, 0.0]]))
    return compound_bcc.CompoundChannelSet(3, 1, 1, 2, 2, h1, h2)


def sampled_census_channel():
    """26 stacked rows of M = 4, drawn without a rank check: more rows and
    more subsets (C(26, 4) = 14,950) than the census enumerates, so it
    samples its subsets."""
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((26, 1, 4)) + 1j * rng.standard_normal((26, 1, 4))
    return compound_bcc.CompoundChannelSet(4, 1, 1, 13, 13, tuple(rows[:13]), tuple(rows[13:]))


def outcome(call):
    """call()'s result, or its exception's type."""
    try:
        return call()
    except compound_bcc.CompoundBccError as e:
        return type(e)


@pytest.mark.parametrize("threshold, call", [
    (1e-12, lambda: compound_bcc.verify_rank_condition(near_dependent_nulled_rows()).passed),
    (0.5, lambda: compound_bcc.verify_rank_condition(sampled_census_channel()).passed),
    (0.5, lambda: compound_bcc.channel.generate_batch((3, 1, 1, 2, 2), [0])[1] is None),
    (1e-6, lambda: linalg.null_spaces(np.diag([1.0, 1e-8, 0.0])[None].astype(complex))[0].shape),
    (1e-2, lambda: compound_bcc.gaussian._ranks(np.array([[[1.0, 0.0], [0.0, 1e-3]]])).tolist()),
    (1e-12, lambda: compound_bcc.zero_forcing(near_dependent_nulled_rows()).nulled1),
], ids=["verify_rank_condition", "sampled_census", "generate_batch", "null_spaces", "_ranks", "zero_forcing"])
def test_one_constant_decides_every_rank(threshold, call):
    # the census, generation, null spaces, the certificates' ranks and zero
    # forcing all decide at linalg.RANK_RTOL, read at call time
    default = outcome(call)
    with mock.patch.object(linalg, "RANK_RTOL", threshold):
        assert outcome(call) != default
