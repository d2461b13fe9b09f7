import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import graded_transformer
from graded_transformer import props
from graded_transformer.errors import ConfigError
from graded_transformer.harness import ExperimentConfig

from test_training import step_node_counts

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(graded_transformer.__file__).resolve().parent
ALIASES = {"ad": "autodiff", "tf": "transformer", "gs": "graded_space"}
MODULES = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}
REPO_DIRS = ("configs", "perfbench", "scripts", "src", "tests")


def backticked(text: str) -> list[str]:
    """The contents of the fenced blocks and of the inline code spans."""
    parts = text.split("```")
    spans = parts[1::2]
    for prose in parts[::2]:
        spans += re.findall(r"`([^`]+)`", prose)
    return spans


def dotted_names(text: str) -> set[str]:
    """Every `head.attr[.attr…]` whose head is a package module or an alias."""
    names = set()
    for span in backticked(text):
        for m in re.finditer(r"(?<![\w./])([A-Za-z_]\w*)((?:\.\w+)+)", span):
            if m.group(1) in MODULES or m.group(1) in ALIASES:
                names.add(m.group(0))
    return names


def repo_paths(text: str) -> set[str]:
    """Every path under a top-level repository directory in the backticked
    text, commands in fenced blocks included; a glob such as `configs/*.json`
    counts as one path."""
    pattern = rf"(?<![\w./])(?:{'|'.join(REPO_DIRS)})/[\w.*/-]*"
    return {m.group(0) for span in backticked(text) for m in re.finditer(pattern, span)}


def exists(path: str) -> bool:
    """A file or directory of the repository, or a glob matching one."""
    return any(ROOT.glob(path.rstrip("/")))


def resolves(name: str) -> bool:
    """An attribute path of its module, a registered prop or an existing file."""
    head, *attrs = name.split(".")
    obj = importlib.import_module(f"graded_transformer.{ALIASES.get(head, head)}")
    for attr in attrs:
        if not hasattr(obj, attr):
            break
        obj = getattr(obj, attr)
    else:
        return True
    return name in {entry[0] for entry in props.REGISTRY} or \
        (ROOT / name).is_file() or (PACKAGE / name).is_file()


def test_readme_names_resolve():
    names = dotted_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "transformer.decode_nodes" in names and "autodiff.py" in names
    stale = sorted(name for name in names if not resolves(name))
    assert not stale, f"README names that resolve to nothing: {stale}"


def test_stale_name_is_reported():
    names = dotted_names("Decoding: `tf.retired_decode`, and ```\nad.retired_node(x)\n```.")
    assert names == {"tf.retired_decode", "ad.retired_node"}
    assert not any(resolves(name) for name in names)


def test_readme_paths_exist():
    paths = repo_paths((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {"scripts/compare_outputs.py", "configs/*.json", "tests/"} <= paths
    missing = sorted(path for path in paths if not exists(path))
    assert not missing, f"README paths that do not exist: {missing}"


def test_stale_path_is_reported():
    text = "Run `tests/` and ```\npython scripts/retired_run.py --seed 1\n```."
    assert repo_paths(text) == {"tests/", "scripts/retired_run.py"}
    assert not exists("scripts/retired_run.py") and exists("tests/")


def layout_modules(text: str) -> set[str]:
    """The *.py names that open an entry, indented two spaces, of the first
    fenced block after "## Layout"."""
    block = text.split("## Layout", 1)[1].split("```")[1]
    return {name for m in re.finditer(r"^  (\w+\.py(?:, \w+\.py)*)", block, flags=re.M)
            for name in m.group(1).split(", ")}


def package_modules() -> set[str]:
    return {p.name for p in PACKAGE.glob("*.py") if not p.name.startswith("__")}


def test_readme_layout_lists_the_package_modules():
    listed = layout_modules((ROOT / "README.md").read_text(encoding="utf-8"))
    modules = package_modules()
    assert listed == modules, (f"README layout entries with no module: {sorted(listed - modules)}; "
                               f"modules with no entry: {sorted(modules - listed)}")


def test_stale_module_entry_is_reported():
    text = ("## Layout\n\n```\nsrc/graded_transformer/\n  tensor.py        seeded RNG\n"
            "  retired.py       removed\n                   see harness.py\n"
            "  demo.py, cli.py  replays and the CLI\n```\n")
    listed = layout_modules(text)
    assert listed == {"tensor.py", "retired.py", "demo.py", "cli.py"}
    assert listed - package_modules() == {"retired.py"}
    assert "graded.py" in package_modules() - listed


def json_blocks(text: str) -> list[str]:
    """The contents of the fenced blocks tagged json."""
    return re.findall(r"```json\n(.*?)```", text, flags=re.S)


def test_readme_configs_load(tmp_path):
    blocks = json_blocks((ROOT / "README.md").read_text(encoding="utf-8"))
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.json"
        path.write_text(block)
        ExperimentConfig.from_file(path)  # raises ConfigError on a stale key


def test_stale_config_key_is_reported(tmp_path):
    text = 'Run:\n```json\n{"task": "poly_degree", "train": {"lambda_max": 3.0}}\n```\n'
    [block] = json_blocks(text)
    path = tmp_path / "stale.json"
    path.write_text(block)
    with pytest.raises(ConfigError, match="lambda_max"):
        ExperimentConfig.from_file(path)


def test_readme_node_counts_are_measured():
    # the opening paragraph's per-step tape-node counts, in workload_setups()
    # order: smoke linear, smoke exponential, EGT hier_copy, wide LGT
    opening = " ".join((ROOT / "README.md").read_text(encoding="utf-8")
                       .split("## Layout")[0].split())
    m = re.search(r"a training step records (\d+) tape nodes at the c15 smoke config "
                  r"\([^;]*; (\d+) in exponential mode\), (\d+) on the EGT `hier_copy` "
                  r"benchmark model and (\d+) on the wide LGT one", opening)
    assert m, "README opening no longer states the per-step node counts"
    assert [int(n) for n in m.groups()] == step_node_counts()
