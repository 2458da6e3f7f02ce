"""The CI workflow runs its process checks through tools/ci.py, step by step."""

import glob
import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runner():
    spec = importlib.util.spec_from_file_location("ci", os.path.join(ROOT, "tools", "ci.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflow_calls_every_step_and_holds_no_heredoc():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        workflow = fh.read()
    steps = load_runner().STEPS
    called = re.findall(r"^ *(?:run: )?python tools/ci\.py (\w+)", workflow, re.M)
    assert sorted(set(called)) == sorted(steps) and len(called) == len(steps)
    assert "<<'EOF'" not in workflow and "<<EOF" not in workflow


def test_haswell_step_names_existing_test_classes():
    runner = load_runner()
    for node in runner.EXACT_RULE_ORACLES + runner.STACKED_BIT_EXACT:
        path, name = node.split("::")
        with open(os.path.join(ROOT, path)) as fh:
            assert f"\nclass {name}:" in fh.read(), node


def test_demos_print_their_pinned_output(capsys):
    load_runner().demos()
    demos = glob.glob(os.path.join(ROOT, "demos", "*.py"))
    assert capsys.readouterr().out.count(": exit 0, peak RSS") == len(demos) == 4


def test_a_changed_demo_output_fails_the_step(tmp_path):
    runner = load_runner()
    with open(runner.DEMO_PINS) as fh:
        pins = json.load(fh)
    pins["fading_policies.py"] = pins["fading_policies.py"].replace("t=2:", "t=3:")
    (tmp_path / "pins.json").write_text(json.dumps(pins))
    with pytest.raises(SystemExit, match=r"demos/fading_policies.py printed other output(.|\n)*\+  t=2:"):
        runner.demos(str(tmp_path / "pins.json"))
