"""The benchmark (perfbench/run.py) reaches into quantrl from outside, so a
rename in the package can break it without any other test noticing. This
parses the benchmark, without running or changing it, and checks that each
quantrl name and config keyword it uses still exists."""

import ast
import dataclasses
import pkgutil
from pathlib import Path

import quantrl

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
CONFIGS = ("TrainConfig", "ExperimentConfig", "EnvConfig", "ForecastConfig")


def dotted(node):
    """``["q", "a3c", "train"]`` for the expression ``q.a3c.train``; None
    for anything but a name followed by attribute reads."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def quantrl_roots(tree):
    """Each local name bound to quantrl or to a path in it: ``q`` and
    ``quantrl`` themselves, an alias such as ``a3c = q.a3c``, and a
    parameter named after a submodule, such as ``train_config``'s ``a3c``,
    which its callers pass ``q.a3c``."""
    submodules = {m.name for m in pkgutil.iter_modules(quantrl.__path__)}
    roots = {"q": [], "quantrl": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            roots.update({a.arg: [a.arg] for a in node.args if a.arg in submodules})
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name, path = dotted(node.targets[0]), dotted(node.value)
            if name and len(name) == 1 and path and path[0] in roots:
                roots[name[0]] = roots[path[0]] + path[1:]
    return roots


def resolve(path):
    """The quantrl object at ``path``, such as ["a3c", "train"], or None."""
    obj = quantrl
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def dict_keys(tree, name):
    """The keys of the module-level ``name = dict(...)`` or ``{...}``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and dotted(node.targets[0]) == [name]:
            if isinstance(node.value, ast.Dict):
                return [key.value for key in node.value.keys]
            return [kw.arg for kw in node.value.keywords]
    raise AssertionError(f"perfbench/run.py defines no dict {name}")


def test_perfbench_quantrl_names_resolve():
    """Every quantrl name that perfbench reads off ``q``, directly or through
    an alias, exists. Method names handed to the tracer as strings are
    exempt: ``Tracer.wrap`` notes a missing one and the run goes on."""
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    roots = quantrl_roots(tree)
    checked, missing = set(), set()
    for node in ast.walk(tree):
        path = dotted(node) if isinstance(node, ast.Attribute) else None
        if path and path[0] in roots:
            name = ".".join(roots[path[0]] + path[1:])
            checked.add(name)
            if resolve(roots[path[0]] + path[1:]) is None:
                missing.add(name)
    assert {"a3c.train", "diffnet.Tape", "qsim.run_vqc_batch"} <= checked
    assert not missing, f"perfbench/run.py reads names quantrl lacks: {sorted(missing)}"


def test_perfbench_config_keywords_are_fields():
    """Every keyword that perfbench passes to a config class is a field of
    it, the keys of a ``**`` dict such as ``A3C_TRAIN`` included."""
    tree = ast.parse(RUN.read_text(), filename=str(RUN))
    roots = quantrl_roots(tree)
    checked, unknown = set(), set()
    for node in ast.walk(tree):
        path = dotted(node.func) if isinstance(node, ast.Call) else None
        if not (path and path[-1] in CONFIGS and path[0] in roots):
            continue
        config = resolve(roots[path[0]] + path[1:])
        assert config is not None, f"quantrl has no {'.'.join(path[1:])}"
        fields = {f.name for f in dataclasses.fields(config)}
        for kw in node.keywords:
            names = [kw.arg] if kw.arg else dict_keys(tree, kw.value.id)
            for name in names:
                checked.add(f"{path[-1]}.{name}")
                if name not in fields:
                    unknown.add(f"{path[-1]}.{name}")
    assert {"TrainConfig.clip_norm", "ForecastConfig.lookback"} <= checked
    assert set(CONFIGS) == {name.split(".")[0] for name in checked}
    assert not unknown, f"perfbench/run.py passes unknown config fields: {sorted(unknown)}"


def wrap_targets(tree):
    """``"Owner.attr"`` for each quantrl function or method that perfbench
    hands ``tracer.wrap`` or its ``fn`` helper by string, the strings of a
    ``for attr in (...)`` loop included, and whether quantrl has it."""
    roots = quantrl_roots(tree)
    loops = {node.target.id: [elt.value for elt in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
             and isinstance(node.iter, ast.Tuple)
             and all(isinstance(elt, ast.Constant) for elt in node.iter.elts)}
    targets = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2
                and dotted(node.func) in (["tracer", "wrap"], ["fn"])):
            continue
        owner, attr = dotted(node.args[0]), node.args[1]
        path = roots[owner[0]] + owner[1:]
        for name in [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]:
            targets[f"{path[-1]}.{name}"] = getattr(resolve(path), name, None) is not None
    return targets


def test_perfbench_wrap_targets_that_quantrl_lacks_are_the_known_ones():
    """A wrap target that quantrl lacks is only noted in the run record, and
    its per-layer metrics read 0. The known ones wait for the benchmark to
    drop them: ``Tape.lstm`` (no model builds a tape) and
    ``ActorCriticNet.policy_probs`` (decisions read ``a3c.PolicyTable``).
    A rename that drops another fails here."""
    targets = wrap_targets(ast.parse(RUN.read_text(), filename=str(RUN)))
    assert {"qsim.run_vqc_batch", "Tape.backward", "svgplot.equity_curve_svg"} <= set(targets)
    missing = {name for name, found in targets.items() if not found}
    assert missing == {"Tape.lstm", "ActorCriticNet.policy_probs"}
