import ast
import inspect
import re
from pathlib import Path

import ambclink
from ambclink import analysis, channel


def test_every_exported_name_resolves():
    assert len(set(ambclink.__all__)) == len(ambclink.__all__)
    for name in ambclink.__all__:
        assert getattr(ambclink, name) is not None, name


def test_exports_match_the_package_imports():
    tree = ast.parse(inspect.getsource(ambclink))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert set(ambclink.__all__) == imported


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is exempt: its imports are the package's exports
    unused = []
    for path in sorted(Path(ambclink.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_only_the_oracles_and_verify_mention_scipy():
    # the sweeps load no scipy for any input, not only those a run reaches
    package = Path(ambclink.__file__).parent
    assert sorted(path.name for path in package.glob("*.py")
                  if "scipy" in path.read_text(encoding="utf-8")) == ["oracles.py", "verify.py"]


def test_every_cli_and_sweep_rejection_names_its_field():
    # the CLI reports each rejection by its field, so every ConfigError raised
    # where options and sweep arguments are read passes fields=
    package = Path(ambclink.__file__).parent
    unnamed = [f"{name}:{node.lineno}" for name in ("cli.py", "montecarlo.py")
               for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"
               and not any(k.arg == "fields" for k in node.keywords)]
    assert unnamed == []


def test_the_shared_closed_forms_use_operators_and_sqrt_alone():
    # the closed forms that take floats and arrays alike give both the same
    # bits only through correctly rounded operators, so none may take a power
    # or numpy's log or exp. noise_levels is not among them: its powers act on
    # the scalar parameters alone, the same floats on either path. _each, which
    # takes math functions element by element over arrays, keeps the same rule.
    names = {"HypothesisMoments", "_checked_moments", "lna_moments", "nolna_moments",
             "level_moments", "hypothesis_moments", "q_function",
             "ber_closed_form", "near_optimal_threshold", "_threshold", "_each"}
    found = set()
    for node in ast.parse(inspect.getsource(analysis)).body:
        if getattr(node, "name", None) not in names:
            continue
        found.add(node.name)
        for sub in ast.walk(node):
            assert not isinstance(getattr(sub, "op", None), ast.Pow), (node.name, sub.lineno)
            assert not (isinstance(sub, ast.Name) and sub.id == "pow"), node.name
            assert not (isinstance(sub, ast.Attribute)
                        and (sub.attr == "pow" or sub.attr in ("power", "log", "exp")
                             and isinstance(sub.value, ast.Name) and sub.value.id == "np")), \
                (node.name, sub.lineno)
    assert found == names


def test_the_channel_text_takes_no_modulus_that_rounds_apart():
    # numpy's complex product, abs and log10, and math.hypot, round apart from
    # Python's complex arithmetic in some last bits, so a channel composed
    # through them would miss the gains of the realization draw_channels makes
    tree = ast.parse(inspect.getsource(channel))
    text = {"ChannelRealization", "_compose", "_from_normals", "bdpr"}
    nodes = [node for node in tree.body if getattr(node, "name", None) in text]
    assert {node.name for node in nodes} == text
    found = [f"{sub.value.id}.{sub.attr}:{sub.lineno}" for node in nodes for sub in ast.walk(node)
             if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
             and sub.value.id in ("np", "numpy")]
    found += [f"hypot:{node.lineno}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "hypot"]
    assert found == []


def test_only_the_channel_module_reads_hst():
    # every composition of h1 = h0 + alpha*hst*htr reads hst, so the channel
    # is composed by one text: the others take h0 and h1 as it composed them.
    # channel.py itself composes only the hst it is handed, as _compose's
    # argument, so no module reads the attribute
    package = Path(ambclink.__file__).parent
    readers = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "hst"}
    assert readers == set()


def test_every_module_level_function_and_class_has_a_user():
    # a function or class that nothing in src/ or perfbench/ uses beyond its
    # definition and its export is code the product does not run.
    # grouped_mean_var is the brute-force oracle that a verify pilot check is
    # to call; only the tests call it so far.
    package = Path(ambclink.__file__).parent
    readers = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    readers += sorted((package.parent.parent / "perfbench").glob("*.py"))
    used = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {f"{path.stem}.{node.name}" for path in readers if path.parent == package
               for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = {name for name in defined if name.split(".")[1] not in used}
    assert unused == {"oracles.grouped_mean_var"}


def test_the_readme_python_blocks_run(capsys):
    # the README's library code runs as written, so its API cannot drift from the code
    readme = Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out
