"""The names the benchmark harness under perfbench/ reads from the package.

The harness traces functions by name and imports others; a name the
package drops or renames would leave its layer metrics silently empty.
These checks read the harness files themselves, so they follow any edit
made there.
"""

import ast
import importlib
import importlib.util
import itertools
from pathlib import Path

from isotemporal import Star, edge_automorphism_group, generate

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, names in spans.TARGETS.items():
        module = importlib.import_module(f"isotemporal.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_every_name_the_input_generator_imports_exists():
    tree = ast.parse((PERFBENCH / "gen.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "isotemporal"
        for alias in node.names
    ]
    assert imported
    package = importlib.import_module("isotemporal")
    for name in imported:
        assert hasattr(package, name), name
    # gen.py draws a random automorphism from the extensional group
    assert edge_automorphism_group(generate(Star(3))).elements == tuple(itertools.permutations(range(3)))
