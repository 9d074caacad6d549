"""Every public top-level function and class in ``src/amr_navkit``, and every
public method of a public class, is used by the package.

A name that only tests call is code no command can reach. The check parses
each module with ``ast`` and counts the loads of a name, and the attribute
reads of it, across the package; a name is referenced when some of them lie
outside its own definition. An import alone does not count. A method is
counted by its bare name, as ``obj.name`` reads it. The names that stay
unreferenced on purpose are exactly those in ``ALLOWED``, each with its
reason, so an entry whose name is gone or now used fails the check too.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "amr_navkit"

ALLOWED = {
    "codec.step_from_pose": "the scalar definition that encode_steps is tested against bit for bit",
    "pipeline.read_dataset": "reads back what gen-data writes, for a consumer of the dataset; the benchmark tracer wraps it by name",
    "scene.raycast_lidar": "one scan for a policy that reads LiDAR; the benchmark tracer wraps it by name",
    "scene.sweep_collision_check": "one sweep of the batched check; the benchmark tracer wraps it by name",
    "planner.waypoints_from_path": "one pose's waypoint chain; the benchmark tracer wraps it by name",
    "geometry.project_to_pixel": "the camera projection that acceptance criterion 6 checks the tilt rule with",
}

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _uses(node: ast.AST) -> Counter:
    """How often each name is loaded, or read as an attribute, under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    )


def _public(module: str, tree: ast.Module):
    """(dotted name, definition) of each public top-level name and public method of a public class."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member


def test_only_the_allowed_public_names_are_unreferenced():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    total = sum(map(_uses, trees.values()), Counter())
    unreferenced = {
        name
        for module, tree in trees.items()
        for name, node in _public(module, tree)
        if total[node.name] == _uses(node)[node.name]
    }
    assert unreferenced - ALLOWED.keys() == set(), "referenced only outside src/amr_navkit: delete, or allow with a reason"
    assert ALLOWED.keys() - unreferenced == set(), "allowed but gone, or used by the package now: drop the entry"
