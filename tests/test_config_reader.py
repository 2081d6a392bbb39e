"""The config reader (`config._Reader`): the YAML subset the configs use, read
as PyYAML's safe loader reads it, everything else refused with its line, and
a runtime that never imports PyYAML.  PyYAML is the oracle here."""

import ast
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from stochadc.cli import main
from stochadc.config import RunConfig, _build, _Reader, _validate, config_hash, parse_config
from stochadc.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
SHIPPED_EXIT_CODES = {
    (config, experiment): int(code)
    for config, experiment, code in (
        line.split() for line in (ROOT / ".github" / "shipped_exit_codes.txt").read_text().splitlines()
    )
}


class _Loader(yaml.SafeLoader):
    """The loader the package used before the reader: PyYAML's safe loader,
    refusing a key repeated in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            merge = key_node.tag == "tag:yaml.org,2002:merge"
            if isinstance(key_node, yaml.ScalarNode) and not merge:
                key = self.construct_object(key_node)
                if key in seen:
                    raise ConfigError(f"key {key!r} repeated on line {key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep)


def read(text: str):
    return _Reader(text).document()


def same(a, b) -> bool:
    """Equal trees, with equal types everywhere (True is not 1, 1 is not
    1.0) and floats equal by repr (nan is nan, -0.0 is not 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        a, b = [*a.items()], [*b.items()]
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return repr(a) == repr(b) if isinstance(a, float) else a == b


def read_as_before(text: str):
    """The tree the reader gives, or its ConfigError's message, and the same
    from the PyYAML loader it replaced."""
    outcomes = []
    for load in (read, lambda t: yaml.load(t, Loader=_Loader)):
        try:
            outcomes.append(load(text))
        except ConfigError as exc:
            outcomes.append(str(exc))
    return outcomes


# ---- no PyYAML at run time ---------------------------------------------------


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this tree's package.  It writes no bytecode
    cache into src/, which would speed up every later import of it."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )


def test_the_import_leaves_pyyaml_out():
    proc = run_fresh("-c", "import sys, stochadc.cli; print('yaml' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# one cheap experiment per shipped config, run without PyYAML
CHEAP = {
    "fom.yaml": "fom", "ideal.yaml": "fom", "pi_mc.yaml": "pi-trim",
    "pi_trim_injected.yaml": "pi-trim", "regime.yaml": "pi-sweep", "skewcal.yaml": "pi-sweep",
}

NO_YAML_CHILD = """
import json, sys
sys.modules["yaml"] = None  # `import yaml` now raises ImportError
from stochadc import cli
runs, out, codes = json.loads(sys.argv[1]), sys.argv[2], []
for config, experiment in runs:
    cli.load_config(config)
    codes.append(cli.main([experiment, "--config", config, "--seed", "3", "--out", out]))
print(json.dumps(codes))
"""


def test_every_shipped_config_runs_without_pyyaml(tmp_path):
    # stands in for CI's job that installs numpy and the package alone
    assert sorted(CHEAP) == [p.name for p in CONFIGS]
    runs = [(f"configs/{name}", experiment) for name, experiment in CHEAP.items()]
    proc = run_fresh("-c", NO_YAML_CHILD, json.dumps(runs), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [SHIPPED_EXIT_CODES[item] for item in CHEAP.items()]


def test_no_package_module_imports_yaml():
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "yaml" for name in names), path


# ---- the same trees as PyYAML --------------------------------------------------


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_a_shipped_config_reads_and_hashes_as_before(path):
    text = path.read_text(encoding="utf-8")
    tree, before = read_as_before(text)
    assert same(tree, before)
    assert config_hash(parse_config(text)) == config_hash(_validate(_build(RunConfig, before)))
    # as perfbench/run.py rewrites it
    dumped = yaml.safe_dump(before, sort_keys=True)
    assert same(read(dumped), yaml.safe_load(dumped))


# the config hash of each shipped config, as the PyYAML loader gave it before
# the reader
SHIPPED_HASHES = {
    "fom.yaml": "47c6f32d4d6757c0", "ideal.yaml": "fb213782c1987cd2",
    "pi_mc.yaml": "6262787867b8855e", "pi_trim_injected.yaml": "4219dc7f0ef51535",
    "regime.yaml": "93f9b6b96ed17e6e", "skewcal.yaml": "c0883515959e5d49",
}


def test_shipped_config_hashes_are_unchanged():
    assert {p.name: config_hash(parse_config(p.read_text(encoding="utf-8"))) for p in CONFIGS} == (
        SHIPPED_HASHES
    )


def config_literals():
    """Every string literal in the tests that PyYAML reads as a config
    document: a mapping whose keys are all config sections or root fields,
    in a text of more than one line.  f-string parts and `str.format`
    templates (a `{name}` in them) are not documents."""
    sections = set(RunConfig.__dataclass_fields__)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for v in node.values}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if id(node) in parts or re.search(r"\{\w+\}", node.value):
                continue
            try:
                value = yaml.safe_load(node.value)
            except yaml.YAMLError:
                continue
            if isinstance(value, dict) and "\n" in node.value.strip() and value.keys() <= sections:
                yield node.value


def test_every_config_literal_in_the_tests_reads_as_before():
    # but those written to be refused below
    refused = {text for text, *_ in REFUSED.values()}
    literals = [text for text in config_literals() if text not in refused]
    assert len(literals) > 50
    for text in literals:
        tree, before = read_as_before(text)
        assert same(tree, before), text


# ---- property tests, PyYAML as the oracle ------------------------------------

KEYS = st.one_of(st.from_regex(r"[a-z_][a-z0-9_]{0,9}", fullmatch=True), st.integers(-5, 99))
# strings a config might hold: printable ASCII (PyYAML writes anything else
# double-quoted, and may split a long double-quoted scalar across lines), no
# spaces, at which it may fold any scalar, none of ',', '?', '[', ']', '{',
# '}', which the subset leaves out of plain scalars, and no ':' first
STRINGS = st.one_of(
    st.text("abcxyzABC019-_./:#'\"!&*%@`|>=<~+", max_size=12).filter(lambda s: s[:1] != ":"),
    st.sampled_from(["true", "yes", "on", "null", "~", "1.5", "1e-12", "0x1F", "1_000", "1:30",
                     "2001-12-14", "<<", "=", ".inf", "-", "--- x", "a: b", " lead"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True), STRINGS,
)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(KEYS, TREES, max_size=6), st.sampled_from([False, None]))
def test_dumped_trees_read_as_pyyaml_reads_them(tree, flow_style):
    # block style, and PyYAML's default of flow style for scalar-only collections
    text = yaml.safe_dump(tree, sort_keys=False, default_flow_style=flow_style)
    assert same(read(text), yaml.safe_load(text)), text


# forms of YAML around two scalars, and scalars built from YAML's indicators
FORMS = [
    "a: {0}", "{0}", "a: [{0}, {1}]", "a: {{k: {0}, {1}: v}}", "- {0}\n- {1}", "{0}: {1}",
    "a:\n  {0}: {1}", "a: [[{0}], {{{1}: {0}}}]", "a: '{0}'", 'a: "{0}"', "a: {0} # {1}",
    "a:\n- {0}\nb: {1}", "a:\n  - {0}\n  -\n    {1}", "- a: {0}\n  {1}: b", "a: {0}\n  {1}",
    "a: [{0},\n  {1}]", "{0}:\n- {1}",
]
RAW = st.one_of(
    st.text(" -?:,[]{}#&*!|>'\"%@`=<~._+0123456789abefnorstuxyNOTY\\\t", min_size=1, max_size=8),
    st.from_regex(r"[-+]?[0-9_]{0,3}\.?[0-9_:]{0,3}(?:[eE][-+]?[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["yes", "No", "ON", "off", "0x1F", "017", "0b11", "1_000", "1:30", "1:30.5",
                     "2001-12-14", "2001-12-14 21:59:43", "<<", "=", ".inf", "-.Inf", ".NaN",
                     "+.5", "-.5", ".5", "1.", "08", "~", "Null", "TRUE", "&a x", "*a", "!!str x",
                     "|", ">-", "? x", "---", "...", '"\\x41\\u00e9"', '"\\q"', "'it''s'"]),
)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FORMS), RAW, RAW)
def test_other_forms_read_as_pyyaml_or_are_refused(form, first, second):
    text = form.format(first, second)
    try:
        tree = read(text)
    except ConfigError:
        return
    assert same(tree, yaml.safe_load(text)), text


def test_the_scalars_the_configs_rely_on():
    text = ("a: [1e-12, 1.0e5, 5.0e-12, 20.0e+9, true, false, .inf, -.inf, .nan, ~, null, ]\n"
            "1: 2\nb:\nc: []\nd: {}\ne: [[7, 1.5]]\n")
    tree = read(text)
    assert same(tree, yaml.safe_load(text))
    assert tree["a"][:4] == ["1e-12", "1.0e5", 5.0e-12, 20.0e9]
    assert math.isnan(tree["a"][8]) and tree[1] == 2 and tree["b"] is None
    # PyYAML's indentless sequence, as perfbench/run.py writes every benchmark config
    assert read("system:\n  skew_injection:\n  - 0.0\n  - 5.0e-12\n") == {
        "system": {"skew_injection": [0.0, 5.0e-12]}
    }
    # 1e-12 stays a string, and a number field still reads it as a number
    cfg = parse_config("system:\n  sampling_jitter: 1e-12\n")
    assert cfg.system.sampling_jitter == 1e-12


# ---- refusals ----------------------------------------------------------------

# (config text, the line its error names, a word of the construct it names)
REFUSED = {
    "yes": ("master_seed: 1\npi:\n  trim_enabled: yes\n", 3, "boolean"),
    "on": ("pi:\n  trim_enabled: on\n", 2, "boolean"),
    "hex": ("master_seed: 0x1F\n", 1, "integer"),
    "octal": ("master_seed: 017\n", 1, "integer"),
    "underscore": ("capture:\n  n_samples: 8_192\n", 2, "integer"),
    "sexagesimal": ("master_seed: 1:30\n", 1, "integer"),
    "timestamp": ("output:\n  dir: 2001-12-14\n", 2, "timestamp"),
    "anchor": ("adc: &a\n  n_taps: 255\n", 1, "anchor"),
    "alias": ("adc:\n  n_taps: 255\npi: *a\n", 3, "alias"),
    "merge": ("adc:\n  <<: {n_taps: 255}\n", 2, "merge key"),
    "tag": ("master_seed: !!int 1\n", 1, "tag"),
    "document-start": ("---\nmaster_seed: 1\n", 1, "document marker"),
    "document-end": ("master_seed: 1\n...\n", 2, "document marker"),
    "literal-block": ("output:\n  dir: |\n    out\n", 2, "block scalar"),
    "folded-block": ("output:\n  dir: >\n    out\n", 2, "block scalar"),
    "multi-line-plain": ("output:\n  dir: out\n    more\n", 3, "multi-line scalar"),
    "question-key": ("? master_seed\n: 1\n", 1, "'?' key"),
    "tab-indent": ("adc:\n\tn_taps: 255\n", 2, "tab in indentation"),
}


@pytest.mark.parametrize("text, line, construct", REFUSED.values(), ids=list(REFUSED))
def test_a_refused_construct_exits_two_naming_its_line(tmp_path, capsys, text, line, construct):
    path = tmp_path / "c.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["pi-sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: YAML line {line}: ") and construct in err, err


def test_a_deep_nest_is_a_config_error():
    with pytest.raises(ConfigError, match="nested too deeply"):
        parse_config("adc: " + "[" * 5000 + "]" * 5000 + "\n")
