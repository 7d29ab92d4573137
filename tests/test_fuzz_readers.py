"""Fuzz every file reader: a mutated file either loads or is rejected with
``ValueError`` (``UsageError`` is one) or ``OSError``, never another error.

Each test starts from a small valid file and applies a few random edits:
deleting a run of characters, inserting a token of one of the formats, or
truncating the rest of the file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import cli, data, mlp

TOKENS = ("@attribute", "@data", ",", "@", "/", ";", "=", "#", "nan", "\t", "\n")

ARFF = """% fixture
@relation demo
@attribute f1 numeric
@attribute f2 numeric
@attribute class hierarchical 1,1/2,3
@data
0.5,1.0,1/2
1.5,2.0,3
2.5,3.5,1/2@3
"""

NATIVE = {
    "features.csv": "0.5,1.0\n1.5,2.0\n-0.25,0.0\n",
    "labels.txt": "a/b\nc\na;c\n",
    "hierarchy.txt": "# classes\na\na/b\nc\n",
}

CONFIG = """# run settings
data = synth
levels = 2
lr = 0.01
leaves_only = true
split_ratios = 0.6,0.2,0.2
"""


@st.composite
def mutated(draw, text):
    """``text`` after one to four random deletions, token insertions or
    truncations; ``text`` may be ``str`` or ``bytes``."""
    tokens = TOKENS if isinstance(text, str) else tuple(t.encode() for t in TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("delete", "insert", "truncate")))
        if kind == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(tokens)) + text[i:]
        else:
            text = text[:i]
    return text


def loads_or_rejects(read, path):
    try:
        read(path)
    except (ValueError, OSError):
        pass


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint(scratch):
    rng = np.random.default_rng(0)
    params = mlp.MlpParams(rng.normal(size=2 * 3 + 3 + 3 * 2 + 2), (2, 3, 2))
    path = scratch / "ok.bin"
    mlp.save_checkpoint(path, params)
    return path.read_bytes()


def test_unmutated_files_load(scratch, checkpoint):
    (scratch / "ok.arff").write_text(ARFF)
    assert data.parse_arff_hmc(scratch / "ok.arff").n_examples == 3
    native = scratch / "ok-native"
    native.mkdir()
    for name, text in NATIVE.items():
        (native / name).write_text(text)
    assert data.load_native_dir(native).n_examples == 3
    (scratch / "ok.cfg").write_text(CONFIG)
    assert cli.parse_config_file(scratch / "ok.cfg")["levels"] == 2
    (scratch / "copy.bin").write_bytes(checkpoint)
    assert mlp.load_checkpoint(scratch / "copy.bin").dims == (2, 3, 2)


def same_dataset(a, b):
    return (np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
            and a.taxonomy.class_names == b.taxonomy.class_names)


# every text fixture, by its path under a fixture root
TEXT_FIXTURES = {"demo.arff": ARFF, "run.cfg": CONFIG,
                 **{f"native/{name}": text for name, text in NATIVE.items()}}


@pytest.mark.parametrize("bom_file", sorted(TEXT_FIXTURES))
def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, bom_file):
    """With ``bom_file`` saved behind a UTF-8 byte-order mark, every reader
    returns what it returns for the plain copy."""
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    for root in (plain, bom):
        (root / "native").mkdir(parents=True)
        for name, text in TEXT_FIXTURES.items():
            mark = "\ufeff" if root == bom and name == bom_file else ""
            (root / name).write_text(mark + text, encoding="utf-8")
    assert same_dataset(data.parse_arff_hmc(bom / "demo.arff"),
                        data.parse_arff_hmc(plain / "demo.arff"))
    assert cli.parse_config_file(bom / "run.cfg") == cli.parse_config_file(plain / "run.cfg")
    assert same_dataset(data.load_native_dir(bom / "native"),
                        data.load_native_dir(plain / "native"))


@settings(max_examples=300, deadline=None)
@given(text=mutated(ARFF))
def test_fuzzed_arff_loads_or_raises_value_error(scratch, text):
    path = scratch / "fuzz.arff"
    path.write_text(text)
    loads_or_rejects(data.parse_arff_hmc, path)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(NATIVE)), data_=st.data())
def test_fuzzed_native_dir_loads_or_raises_value_error(scratch, name, data_):
    directory = scratch / "native"
    directory.mkdir(exist_ok=True)
    for other, text in NATIVE.items():
        (directory / other).write_text(text)
    (directory / name).write_text(data_.draw(mutated(NATIVE[name])))
    loads_or_rejects(data.load_native_dir, directory)


@settings(max_examples=200, deadline=None)
@given(text=mutated(CONFIG))
def test_fuzzed_config_file_loads_or_raises_value_error(scratch, text):
    path = scratch / "fuzz.cfg"
    path.write_text(text)
    loads_or_rejects(cli.parse_config_file, path)


@settings(max_examples=200, deadline=None)
@given(data_=st.data())
def test_fuzzed_checkpoint_loads_or_raises_value_error(scratch, checkpoint, data_):
    path = scratch / "fuzz.bin"
    path.write_bytes(data_.draw(mutated(checkpoint)))
    loads_or_rejects(mlp.load_checkpoint, path)
