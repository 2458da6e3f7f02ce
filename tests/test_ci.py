"""The CI workflow runs its process checks through tools/ci.py, step by step."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runner():
    spec = importlib.util.spec_from_file_location("ci", os.path.join(ROOT, "tools", "ci.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflow_calls_every_step_and_holds_no_heredoc():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml")) as fh:
        workflow = fh.read()
    for step in load_runner().STEPS:
        assert f"python tools/ci.py {step}" in workflow, step
    assert "<<'EOF'" not in workflow and "<<EOF" not in workflow
