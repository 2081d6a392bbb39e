"""`core.Record`, the frozen base of every record in the package, against
the frozen dataclass it stands in for."""

import dataclasses
import importlib
import os
import pickle
import subprocess
import sys
from dataclasses import field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochadc
from stochadc import config
from stochadc.core import Record
from stochadc.errors import ConfigError


def _post_init(self):
    object.__setattr__(self, "i", (self.a, "post"))


def _namespace() -> dict:
    """One class body of every kind of field `Record` takes, fresh for each
    class built from it: `dataclass` writes into its `Field` objects."""
    return {
        "__doc__": "A record of every kind of field.",
        "__annotations__": {
            "a": object, "b": object, "c": list, "d": object,
            "e": object, "g": object, "h": object, "i": object,
        },
        "b": 1,
        # the factory's list is left out of == and hash, which would
        # otherwise always refuse
        "c": field(default_factory=list, compare=False),
        "d": field(default=2, repr=False),
        "e": field(default=3, compare=False),
        "g": field(init=False, default=4),  # read from the class, never set
        "h": field(default=5, hash=False),
        "i": field(init=False),  # set by __post_init__
        "__post_init__": _post_init,
    }


# same name and module, so the error messages and reprs read the same;
# `Sample` alone is found by pickle under that name
Sample = type("Sample", (Record,), _namespace())
Twin = dataclasses.dataclass(frozen=True)(type("Sample", (), _namespace()))

INIT_NAMES = ["a", "b", "c", "d", "e", "h"]
VALUES = st.one_of(
    st.integers(), st.text(max_size=3), st.none(), st.floats(),
    st.tuples(st.integers()), st.lists(st.integers(), max_size=2),
)


def _outcome(call):
    """What `call` returns, or the type and text of what it raises."""
    try:
        return "returned", call()
    except Exception as exc:  # noqa: BLE001 - every outcome is compared
        return "raised", type(exc), str(exc)


def _state(obj) -> list:
    """An instance's stored fields, in the order they were set."""
    return list(vars(obj).items())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    args=st.lists(VALUES, max_size=8),
    kwargs=st.dictionaries(st.sampled_from(INIT_NAMES + ["g", "i", "zz"]), VALUES, max_size=4),
    changes=st.dictionaries(st.sampled_from(INIT_NAMES + ["g"]), VALUES, max_size=2),
)
def test_record_behaves_as_its_frozen_dataclass_twin(args, kwargs, changes):
    built = _outcome(lambda: Sample(*args, **kwargs))
    oracle = _outcome(lambda: Twin(*args, **kwargs))
    # missing, unknown and repeated arguments, and too many: the same TypeError
    assert built[0] == oracle[0]
    if built[0] == "raised":
        assert built[1:] == oracle[1:]
        return
    record, twin = built[1], oracle[1]
    again, twin_again = Sample(*args, **kwargs), Twin(*args, **kwargs)
    assert repr(record) == repr(twin)
    assert _state(record) == _state(twin)
    assert _outcome(lambda: record == again) == _outcome(lambda: twin == twin_again)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
    assert (record == twin, twin == record) == (False, False)
    # a fresh factory value per instance
    assert ("c" in kwargs or len(args) > 2) or record.c is not again.c
    assert dataclasses.asdict(record) == dataclasses.asdict(twin)

    replaced = _outcome(lambda: dataclasses.replace(record, **changes))
    replaced_twin = _outcome(lambda: dataclasses.replace(twin, **changes))
    assert replaced[0] == replaced_twin[0]
    if replaced[0] == "returned":
        assert repr(replaced[1]) == repr(replaced_twin[1])
        assert _state(replaced[1]) == _state(replaced_twin[1])
    else:
        assert replaced[1:] == replaced_twin[1:]

    for name in ("a", "c", "g", "zz"):
        assigned = _outcome(lambda: setattr(record, name, 0))
        assert assigned == _outcome(lambda: setattr(twin, name, 0))
        assert assigned[1] is dataclasses.FrozenInstanceError
        deleted = _outcome(lambda: delattr(record, name))
        assert deleted == _outcome(lambda: delattr(twin, name))
        assert deleted[1] is dataclasses.FrozenInstanceError
    assert _state(record) == _state(twin)

    # a NaN comes back as another object, so the copy is compared as bytes
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is Sample
    assert repr(copy) == repr(record)
    assert list(vars(copy)) == list(vars(record))
    assert pickle.dumps(copy) == pickle.dumps(record)


def test_record_fields_match_the_dataclass_twin():
    assert dataclasses.is_dataclass(Sample) and dataclasses.is_dataclass(Sample(0))
    assert [
        (f.name, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(Sample)
    ] == [(f.name, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(Twin)]
    assert Sample.__match_args__ == Twin.__match_args__
    assert Sample.g == Twin.g == 4 and "g" not in vars(Sample(0))
    # replace refuses an init=False field, and the constructor an unknown one
    for changes in ({"g": 0}, {"i": 0}, {"zz": 0}):
        refused = _outcome(lambda: dataclasses.replace(Sample(0), **changes))
        assert refused[0] == "raised"
        assert refused == _outcome(lambda: dataclasses.replace(Twin(0), **changes))


def test_calls_by_keyword_and_with_missing_fields_match_the_twin():
    def body():
        return {"__doc__": "Three.", "__annotations__": {"x": int, "y": int, "z": int}}

    three = type("Three", (Record,), body())
    twin = dataclasses.dataclass(frozen=True)(type("Three", (), body()))
    for args, kwargs in [
        ((), {}), ((1,), {}), ((1, 2), {}), ((), {"y": 2}),  # missing one, two or three
        ((), {"x": 1, "y": 2, "z": 3}), ((), {"z": 3, "y": 2, "x": 1}),  # in and out of order
        ((1,), {"z": 3, "y": 2}), ((1, 2, 3, 4), {}),
    ]:
        built = _outcome(lambda: three(*args, **kwargs))
        oracle = _outcome(lambda: twin(*args, **kwargs))
        assert built[0] == oracle[0]
        if built[0] == "raised":
            assert built[1:] == oracle[1:]
        else:
            assert _state(built[1]) == _state(oracle[1])


def test_an_init_false_field_with_a_factory_is_refused():
    body = {"__doc__": "Unsupported.", "__annotations__": {"x": list}}
    body["x"] = field(init=False, default_factory=list)
    with pytest.raises(TypeError, match="an init=False field takes no default_factory"):
        type("Unsupported", (Record,), body)


def test_a_required_field_after_a_defaulted_one_is_refused_as_by_dataclass():
    body = {"__doc__": "Out of order.", "__annotations__": {"x": int, "y": int}, "x": 0}
    with pytest.raises(TypeError) as oracle:
        dataclasses.dataclass(frozen=True)(type("Late", (), dict(body)))
    with pytest.raises(TypeError, match=str(oracle.value)):
        type("Late", (Record,), dict(body))


def _package_classes() -> list[type]:
    """Every class defined in a module of the package."""
    found = []
    for path in sorted(Path(stochadc.__file__).parent.glob("*.py")):
        name = "stochadc" if path.stem == "__init__" else f"stochadc.{path.stem}"
        module = importlib.import_module(name)
        found += [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
    return found


def test_every_record_is_a_documented_record():
    classes = _package_classes()
    records = [c for c in classes if dataclasses.is_dataclass(c) and c is not config._Section]
    # a dataclass outside the base would generate its methods at import again
    assert all(issubclass(c, Record) for c in records)
    assert len(records) == 25
    # without its own docstring, dataclass builds one from inspect.signature
    assert [c.__name__ for c in records if not c.__dict__.get("__doc__")] == []


# a valid call for each record with a __post_init__ that takes arguments
# without a default
_BUILD = {
    "FomEntry": lambda cls: cls("x", 1e-3, 5.0, 1e9),
}


def test_every_record_runs_its_post_init_once(monkeypatch):
    posted = [
        c for c in _package_classes()
        if dataclasses.is_dataclass(c) and c is not config._Section and hasattr(c, "__post_init__")
    ]
    assert len(posted) == 13  # the 13 config sections
    for cls in posted:
        calls = []
        original = cls.__post_init__

        def counted(self, original=original, calls=calls):
            calls.append(self)
            original(self)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "__post_init__", counted)
            record = _BUILD.get(cls.__name__, lambda c: c())(cls)
        assert len(calls) == 1 and calls[0] is record, cls.__name__
    # and a section's post-init is its checks
    with pytest.raises(ConfigError, match="adc.v_threshold must lie"):
        config.AdcConfig(v_threshold=1.0)


def test_cli_import_runs_no_generated_source(tmp_path):
    # `dataclass(frozen=True)` execs the source of six methods per class:
    # 135 source strings over the package's records before the shared base
    code = (
        "import builtins\n"
        "real, sources = builtins.exec, []\n"
        "def counted(source, *args, **kwargs):\n"
        "    if isinstance(source, (str, bytes)):\n"
        "        sources.append(source)\n"
        "    return real(source, *args, **kwargs)\n"
        "builtins.exec = counted\n"
        "import stochadc.cli\n"
        "print(len(sources))\n"
    )
    src = str(Path(stochadc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120, cwd=tmp_path,
    )
    assert proc.stdout.split() == ["0"]
