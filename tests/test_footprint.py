"""The serving process loads only NumPy: scipy and networkx stay optional.

Each test runs a fresh interpreter, because the test session itself has
long since imported both packages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Installs a ``sys.meta_path`` finder that refuses both optional packages.
BLOCK_OPTIONAL = """
import sys

class BlockOptional:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "networkx"):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, BlockOptional())
for name in ("scipy", "networkx"):
    try:
        __import__(name)
    except ModuleNotFoundError:
        continue
    raise SystemExit(f"{name} was not blocked")
"""

#: Every served method with explicit knobs where its defaults would not be
#: served (cluster-hkpr's eps = min(eps_r * delta, p_f) asks for ~1e20
#: walks, more than an int64 counter holds, and is refused).
SERVE_EVERY_METHOD = """
import json

from repro.service import GraphRegistry, QueryService
from repro.service.planner import SERVICE_METHODS

KNOBS = {"cluster-hkpr": {"eps": 0.1}}
registry = GraphRegistry()
registry.add_generated("chung-lu,n=500,gamma=2.5,seed=11", name="g")
rendered = {}
with QueryService(registry, rng=1) as service:
    for method in SERVICE_METHODS:
        response = service.query("g", method, 5, KNOBS.get(method), timeout=60)
        rendered[method] = len(response.to_dict()["top"])
print(json.dumps(rendered))
"""

LOADED_OPTIONAL = """
import json
print(json.dumps(sorted(
    name for name in sys.modules if name.partition(".")[0] in ("scipy", "networkx")
)))
"""


def run_python(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter on this checkout; its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()


def test_serving_and_cli_imports_load_neither_optional_package():
    lines = run_python("import sys, repro, repro.service, repro.cli\n" + LOADED_OPTIONAL)
    assert json.loads(lines[-1]) == []


def test_every_served_method_answers_with_both_packages_blocked():
    from repro.service.planner import SERVICE_METHODS

    lines = run_python(BLOCK_OPTIONAL + SERVE_EVERY_METHOD + LOADED_OPTIONAL)
    rendered, loaded = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(rendered) == set(SERVICE_METHODS)
    assert all(count > 0 for count in rendered.values()), rendered
    assert loaded == []
