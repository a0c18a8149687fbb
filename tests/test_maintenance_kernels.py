"""Native maintenance kernels (``label_row`` / ``shortcut_row``) vs the reference.

The contract under test (DESIGN.md §7):

* the C kernels and the pure-Python reference maintain bit-identical
  indexes: after the same seeded update batches every distance row, every
  position row and every shortcut value of DH2H, MHL, PMHL and PostMHL (and
  DCH, which runs only the shortcut phase) is equal bit for bit, on a freshly built index and on a snapshot-loaded one;
* the *first* batch after ``load_index`` leaves answers equal to the
  Dijkstra oracle — that batch is where the kernels first meet the lazily
  loaded dicts, which read as empty to C until they have loaded;
* the kernels refuse an unloaded ``LazyDict`` and malformed inputs with
  typed errors, never a crash or a silent default.
"""

from __future__ import annotations

import math

import pytest

import repro.kernels.native as native
from repro.algorithms.dijkstra import dijkstra_distance
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.kernels.native import materialised, native_kernel
from repro.labeling.h2h import H2HLabels
from repro.registry import create_index, get_spec
from repro.store import load_index, save_index
from repro.store.codec import LazyDict, LoadedDict
from repro.throughput.workload import sample_query_pairs
from repro.treedec.mde import ContractionResult

#: The four maintained H2H-family methods, plus DCH for a shortcut-only
#: maintenance path; small-graph parameters.
SPECS = {
    "DCH": get_spec("DCH"),
    "DH2H": get_spec("DH2H"),
    "MHL": get_spec("MHL"),
    "PMHL": get_spec("PMHL", num_partitions=3, seed=0),
    "PostMHL": get_spec("PostMHL", bandwidth=8, expected_partitions=3),
}

BATCHES = 8
VOLUME = 10
#: The oracle tolerance of tests/test_differential.py (DESIGN.md §6).
REL_TOL = 1e-9

requires_native = pytest.mark.skipif(
    native_kernel() is None, reason=f"native kernel unavailable: {native.native_kernel_error()}"
)


def _graph():
    return grid_road_network(8, 8, seed=5)


@pytest.fixture
def pure_python(monkeypatch):
    """Force the pure-Python fallback, exactly as a failed kernel load does."""
    monkeypatch.setattr(native, "_loaded", True)
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_failure", "disabled for the reference run")


def _maintained(index):
    """Every ``H2HLabels`` / ``ContractionResult`` reachable from ``index``,
    keyed by attribute path (first path wins for shared objects)."""
    found = {}
    seen = set()

    def walk(obj, path, depth):
        if id(obj) in seen or depth > 4:
            return
        seen.add(id(obj))
        if isinstance(obj, (H2HLabels, ContractionResult)):
            found[path] = obj
            return
        if isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]", depth + 1)
        elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
            for name, value in vars(obj).items():
                walk(value, f"{path}.{name}", depth + 1)

    walk(index, "index", 0)
    return found


def _fingerprint(index):
    """Bit-exact image of every label row and shortcut value."""
    image = {}
    for path, obj in _maintained(index).items():
        if isinstance(obj, H2HLabels):
            image[path] = {
                v: ([x.hex() for x in obj.dis[v]], list(obj.pos[v]))
                for v in obj.dis
            }
        else:
            image[path] = {
                v: [(u, obj.shortcuts[v][u].hex()) for u in obj.neighbors[v]]
                for v in obj.order
            }
    return image


def _maintain(method, loaded, tmp_path):
    index = create_index(SPECS[method], _graph())
    index.build()
    if loaded:
        path = str(tmp_path / "snap")
        save_index(index, path)
        index = load_index(path)
    for seed in range(BATCHES):
        index.apply_batch(generate_update_batch(index.graph, VOLUME, seed=seed))
    return _fingerprint(index)


@requires_native
@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
@pytest.mark.parametrize("method", sorted(SPECS))
def test_native_matches_reference_bit_for_bit(method, loaded, tmp_path, monkeypatch):
    native_image = _maintain(method, loaded, tmp_path / "native")
    assert native_image, "no maintained structure found"
    with monkeypatch.context() as patch:
        patch.setattr(native, "_loaded", True)
        patch.setattr(native, "_module", None)
        assert native_kernel() is None
        pure_image = _maintain(method, loaded, tmp_path / "pure")
    assert native_image.keys() == pure_image.keys()
    for path in native_image:
        assert native_image[path] == pure_image[path], f"{method}: {path} diverged"


@pytest.mark.parametrize("path_kind", ["native", "pure"])
@pytest.mark.parametrize("method", sorted(SPECS))
def test_first_batch_after_load_matches_oracle(method, path_kind, tmp_path, request):
    if path_kind == "pure":
        request.getfixturevalue("pure_python")
    elif native_kernel() is None:
        pytest.skip("native kernel unavailable")
    graph = _graph()
    oracle = graph.copy()
    index = create_index(SPECS[method], graph)
    index.build()
    save_index(index, str(tmp_path / "snap"))
    loaded = load_index(str(tmp_path / "snap"))

    batch = generate_update_batch(loaded.graph, VOLUME, seed=42)
    generate_update_batch(oracle, VOLUME, seed=42).apply(oracle)
    loaded.apply_batch(batch)

    for s, t in sample_query_pairs(oracle, 40, seed=3):
        expected = dijkstra_distance(oracle, s, t)
        got = loaded.query(s, t)
        assert math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{method} ({path_kind}): q({s}, {t}) = {got!r}, oracle {expected!r}"
        )


# ----------------------------------------------------------------------
# The C entry points themselves
# ----------------------------------------------------------------------
def _tiny_labels():
    """A built 4-vertex path's labels: vertex ids 0-3, contraction order 0..3."""
    from repro.graph.graph import Graph
    from repro.treedec.mde import contract_graph
    from repro.treedec.tree import TreeDecomposition

    graph = Graph()
    for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 9.0)]:
        graph.add_edge(u, v, w)
    contraction = contract_graph(graph, order=[0, 1, 2, 3])
    tree = TreeDecomposition.from_contraction(contraction)
    labels = H2HLabels(tree)
    labels.build()
    return graph, contraction, tree, labels


def _label_args(labels, **override):
    tree = labels.tree
    args = {
        "ancestors": tree.ancestors,
        "depth": tree.depth,
        "neighbors": tree.contraction.neighbors,
        "shortcuts": tree.contraction.shortcuts,
        "dis": labels.dis,
        "pos": labels.pos,
    }
    args.update(override)
    return list(args.values())


def _shortcut_args(graph, contraction, v, **override):
    args = {
        "neighbors": contraction.neighbors,
        "shortcuts": contraction.shortcuts,
        "edges": graph.neighbors(v),
        "supporters": contraction.supporters,
    }
    args.update(override)
    return list(args.values())


@requires_native
class TestKernelInputs:
    def test_rows_match_reference(self):
        graph, contraction, _, labels = _tiny_labels()
        kernel = native_kernel()
        for v in contraction.order:
            expected = labels.recompute_vertex_reference(v)
            assert kernel.label_row(v, *_label_args(labels)) is False
            assert labels.dis[v] == expected
            del labels.dis[v]
            assert kernel.label_row(v, *_label_args(labels)) is True
            assert labels.dis[v] == expected
            assert kernel.shortcut_row(v, *_shortcut_args(graph, contraction, v)) == []

    def test_unloaded_lazy_dict_is_refused(self):
        """The trap: an unloaded LazyDict is an empty dict to PyDict_GetItem."""
        graph, contraction, _, labels = _tiny_labels()
        kernel = native_kernel()
        supporters = dict(contraction.supporters)
        lazy = LazyDict(lambda target: target.update(supporters))
        with pytest.raises(TypeError, match="materialised"):
            kernel.shortcut_row(0, *_shortcut_args(graph, contraction, 0, supporters=lazy))
        rows = dict(labels.dis)
        lazy_dis = LazyDict(lambda target: target.update(rows))
        with pytest.raises(TypeError, match="materialised"):
            kernel.label_row(3, *_label_args(labels, dis=lazy_dis))
        # Once loaded it is a plain dict and is accepted.
        assert type(materialised(lazy)) is LoadedDict
        assert kernel.shortcut_row(0, *_shortcut_args(graph, contraction, 0, supporters=lazy)) == []
        assert kernel.label_row(3, *_label_args(labels, dis=materialised(lazy_dis))) is False
        assert lazy_dis[3] == rows[3]

    def test_label_row_malformed(self):
        _, _, _, labels = _tiny_labels()
        label_row = native_kernel().label_row
        with pytest.raises(TypeError):
            label_row(3)
        with pytest.raises(TypeError):
            label_row("3", *_label_args(labels))
        with pytest.raises(KeyError):
            label_row(99, *_label_args(labels))
        with pytest.raises(TypeError):
            label_row(3, *_label_args(labels, depth=[0, 1, 2, 3]))
        with pytest.raises(TypeError):
            label_row(3, *_label_args(labels, ancestors={3: (3,)}))
        with pytest.raises(TypeError):  # an int where a float shortcut belongs
            label_row(0, *_label_args(labels, shortcuts={0: {1: 1, 3: 9.0}}))
        with pytest.raises(KeyError):  # a neighbour without a label row
            label_row(0, *_label_args(labels, dis={}))
        short = {v: row[:1] for v, row in labels.dis.items()}
        with pytest.raises(IndexError):
            label_row(0, *_label_args(labels, dis=short))
        with pytest.raises(TypeError):
            label_row(0, *_label_args(labels, dis={v: tuple(r) for v, r in labels.dis.items()}))

    def test_shortcut_row_malformed(self):
        graph, contraction, _, _ = _tiny_labels()
        shortcut_row = native_kernel().shortcut_row
        with pytest.raises(TypeError):
            shortcut_row(0, contraction.neighbors)
        with pytest.raises(TypeError):
            shortcut_row(0.0, *_shortcut_args(graph, contraction, 0))
        with pytest.raises(KeyError):
            shortcut_row(99, *_shortcut_args(graph, contraction, 0))
        with pytest.raises(TypeError):
            shortcut_row(0, *_shortcut_args(graph, contraction, 0, edges=[(1, 1.0)]))
        with pytest.raises(TypeError):  # an int edge weight
            shortcut_row(0, *_shortcut_args(graph, contraction, 0, edges={1: 1, 3: 9.0}))
        bad_supporters = {key: tuple(xs) for key, xs in contraction.supporters.items()}
        with pytest.raises(TypeError):
            shortcut_row(1, *_shortcut_args(graph, contraction, 1, supporters=bad_supporters))
        with pytest.raises(KeyError):  # a supporter with no shortcut row
            shortcut_row(1, *_shortcut_args(graph, contraction, 1, shortcuts={1: contraction.shortcuts[1]}))
