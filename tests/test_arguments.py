"""Every numeric argument of the public API is checked by one rule, ``errors.check_number``.

A bool is not a number, text is not a number, NaN is in no range, and an
integer argument takes no fraction.  Each such value raises a
``ValidationError`` whose message begins with the argument's name, so a
caller can tell which argument was wrong.  The CLI names its flags the same
way, before it reads any file.  Every collection of indices is checked by
one rule too, ``errors.check_indices``: its members are integers below the
collection's size, and where the collection is a set of distinct items, none
appears twice.
"""

import inspect
import re
from dataclasses import dataclass

import numpy as np
import pytest

import provex
from provex.abstraction import MergeSpec, ReductionSchedule, build_abstract, build_from_merge_sets, refine
from provex.bounds import propagate_box
from provex.cli import main
from provex.errors import ValidationError, check_indices, check_number
from provex.explain import (
    FeatureGrouping,
    FeatureOrdering,
    explain_abstraction_refinement,
    explain_baseline,
    order_features,
)
from provex.fixtures import demo_network, mnist_shape_network, random_network, uniform_instances
from provex.intervals import iv_subset
from provex.network import gradient, predict
from provex.queries import RegressionQuery, SufficiencyQuery, find_witnesses, oracle_check

NET, X = demo_network()
TARGET = predict(NET, X)
DOMAIN = NET.input_domain
LB = propagate_box(NET, DOMAIN)
COARSE = build_abstract(NET, LB, 0.4)
QUERY = SufficiencyQuery(X, frozenset(), 0.5, TARGET, DOMAIN)
BOX = QUERY.query_box()
OUT = propagate_box(NET, BOX).final


@dataclass(frozen=True)
class Argument:
    """One numeric argument: a call that passes ``value`` for it, and what its messages begin with."""

    call: object
    name: str
    integer: bool
    good: object  # a value the call accepts
    below: object  # a value below the argument's range


RNG = np.random.default_rng(0)
ARGUMENTS = {
    ("order_features", "seed"): Argument(
        lambda v: order_features(NET, X, FeatureGrouping.singletons(3), "random", seed=v), "seed", True, 1, -1
    ),
    ("explain_baseline", "epsilon"): Argument(lambda v: explain_baseline(NET, X, v), "epsilon", False, 0.5, -0.1),
    ("explain_baseline", "seed"): Argument(lambda v: explain_baseline(NET, X, 0.5, seed=v), "seed", True, 1, -1),
    ("explain_baseline", "oracle_budget"): Argument(
        lambda v: explain_baseline(NET, X, 0.5, backend="oracle", oracle_budget=v), "oracle split budget", True, 8, -1
    ),
    ("explain_abstraction_refinement", "epsilon"): Argument(
        lambda v: explain_abstraction_refinement(NET, X, v), "epsilon", False, 0.5, -0.1
    ),
    ("explain_abstraction_refinement", "timeout"): Argument(
        lambda v: explain_abstraction_refinement(NET, X, 0.5, timeout=v), "timeout", False, 10.0, -1.0
    ),
    ("explain_abstraction_refinement", "seed"): Argument(
        lambda v: explain_abstraction_refinement(NET, X, 0.5, seed=v), "seed", True, 1, -1
    ),
    ("SufficiencyQuery", "epsilon"): Argument(
        lambda v: SufficiencyQuery(X, frozenset(), v, TARGET, DOMAIN), "epsilon", False, 0.1, -0.1
    ),
    ("SufficiencyQuery", "fixed_features"): Argument(
        lambda v: SufficiencyQuery(X, frozenset({0, v}), 0.1, TARGET, DOMAIN), "fixed_features", True, 1, -1
    ),
    ("SufficiencyQuery", "target"): Argument(
        lambda v: SufficiencyQuery(X, frozenset(), 0.1, v, DOMAIN), "target", True, TARGET, -1
    ),
    ("RegressionQuery", "epsilon"): Argument(
        lambda v: RegressionQuery(X, frozenset(), v, 1.0, DOMAIN), "epsilon", False, 0.1, -0.1
    ),
    ("RegressionQuery", "fixed_features"): Argument(
        lambda v: RegressionQuery(X, frozenset({v}), 0.1, 1.0, DOMAIN), "fixed_features", True, 1, -1
    ),
    ("RegressionQuery", "delta"): Argument(
        lambda v: RegressionQuery(X, frozenset(), 0.1, v, DOMAIN), "delta", False, 1.0, 0.0
    ),
    ("oracle_check", "budget"): Argument(lambda v: oracle_check(NET, QUERY, v), "oracle split budget", True, 8, -1),
    ("find_witnesses", "n_random"): Argument(
        lambda v: find_witnesses(NET, TARGET, BOX.lo[None], BOX.hi[None], OUT.hi[None], RNG, v), "n_random", True, 4, -1
    ),
    ("gradient", "out_index"): Argument(lambda v: gradient(NET, X, v), "out_index", True, 1, -1),
    ("build_abstract", "rate"): Argument(lambda v: build_abstract(NET, LB, v), "reduction rate", False, 0.5, 0.0),
    ("refine", "rate"): Argument(lambda v: refine(NET, COARSE, LB, v), "refinement rate", False, 0.8, 0.0),
    ("build_from_merge_sets", "merge_sets"): Argument(
        lambda v: build_from_merge_sets(NET, LB, (frozenset({0, v}),)), "merge_sets[0]", True, 1, -1
    ),
    ("ReductionSchedule", "rates"): Argument(
        lambda v: ReductionSchedule((v, 1.0)), "schedule rate", False, 0.5, -0.5
    ),
    ("FeatureGrouping", "groups"): Argument(
        lambda v: FeatureGrouping(((1,), (v,), (2,)), ("a", "b", "c")), "groups[1]", True, 0, -1
    ),
    ("FeatureGrouping.singletons", "n"): Argument(FeatureGrouping.singletons, "n", True, 3, -1),
    ("FeatureGrouping.rgb_pixels", "n"): Argument(FeatureGrouping.rgb_pixels, "n", True, 6, -3),
    ("iv_subset", "slack"): Argument(lambda v: iv_subset(BOX, DOMAIN, v), "slack", False, 0.0, -1.0),
    ("random_network", "input_dim"): Argument(lambda v: random_network(v, (4,), 2), "layer widths", True, 3, 0),
    ("random_network", "hidden"): Argument(lambda v: random_network(3, (4, v), 2), "layer widths", True, 4, 0),
    ("random_network", "output_dim"): Argument(lambda v: random_network(3, (4,), v), "layer widths", True, 2, 0),
    ("random_network", "seed"): Argument(lambda v: random_network(3, (4,), 2, seed=v), "seed", True, 1, -1),
    ("mnist_shape_network", "seed"): Argument(lambda v: mnist_shape_network(seed=v), "seed", True, 1, -1),
    ("uniform_instances", "count"): Argument(lambda v: uniform_instances(NET, v), "instance count", True, 2, -1),
    ("uniform_instances", "seed"): Argument(lambda v: uniform_instances(NET, 1, seed=v), "seed", True, 1, -1),
}


def bad_values(argument: Argument):
    yield "1"
    yield True
    yield float("nan")
    yield argument.below
    if argument.integer:
        yield 2.5


@pytest.mark.parametrize(
    "argument, value",
    [
        pytest.param(argument, value, id=f"{where}.{name}={value!r}")
        for (where, name), argument in ARGUMENTS.items()
        for value in bad_values(argument)
    ],
)
def test_a_bad_number_is_named(argument, value):
    with pytest.raises(ValidationError, match=f"^{re.escape(argument.name)}"):
        argument.call(value)


def test_every_numeric_parameter_of_the_public_api_has_a_row():
    # A new public function with an int or float parameter must be added
    # to the table, so that its checks are held to the same rule.
    annotated = re.compile(r"\b(int|float)\b")
    missing = [
        f"{name}.{parameter.name}"
        for name in provex.__all__
        if inspect.isfunction(function := getattr(provex, name))
        for parameter in inspect.signature(function).parameters.values()
        if annotated.search(str(parameter.annotation)) and (name, parameter.name) not in ARGUMENTS
    ]
    assert missing == []


@pytest.mark.parametrize("where, name", list(ARGUMENTS))
def test_each_row_accepts_its_good_value(where, name):
    # The row's call is sound apart from the value under test, so each
    # rejection above is that value's own.
    argument = ARGUMENTS[where, name]
    argument.call(argument.good)


@pytest.mark.parametrize(
    "value, message",
    [
        (-1, "seed must be nonnegative, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        (np.int64(3), None),
        (True, "seed must be an integer, got True"),
        (np.bool_(True), "seed must be an integer, got "),  # numpy's repr of it varies by version
    ],
)
def test_integer_forms(value, message):
    if message is None:
        assert check_number("seed", value, integer=True, minimum=0) is value
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            check_number("seed", value, integer=True, minimum=0)


@pytest.mark.parametrize(
    "bounds, value, message",
    [
        ({"minimum": 0}, float("nan"), "x must be nonnegative, got nan"),
        ({"positive": True}, 0.0, "x must be positive, got 0.0"),
        ({"positive": True, "maximum": 1}, 1.5, "x must lie in (0, 1], got 1.5"),
        ({"minimum": 0, "maximum": 2}, 3, "x must lie in [0, 2], got 3"),
        ({"minimum": 2}, 1, "x must lie in [2, inf), got 1"),
        ({"maximum": 0}, 3, "x must lie in (-inf, 0], got 3"),
        ({}, float("inf"), "x inf is not a finite number"),
        ({}, "0.5", "x must be a number, got '0.5'"),
        ({}, None, "x must be a number, got None"),
    ],
)
def test_range_forms(bounds, value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_number("x", value, **bounds)


def test_unbounded_numbers_pass_whole():
    assert check_number("x", np.float64(-2.5)) == -2.5
    assert check_number("timeout", float("inf"), minimum=0) == float("inf")


@dataclass(frozen=True)
class Indices:
    """One index collection: a call that passes a collection holding ``member``, and what its messages begin with."""

    call: object
    name: str
    size: int  # members lie in [0, size)
    good: object  # a member the call accepts
    repeat: object  # a member the collection already holds, or None where a repeat is allowed


GROUPING = FeatureGrouping.singletons(3)
INDEX_ARGUMENTS = {
    ("SufficiencyQuery", "fixed_features"): Indices(
        lambda v: SufficiencyQuery(X, (0, v), 0.1, TARGET, DOMAIN), "fixed_features", 3, 1, None
    ),
    ("RegressionQuery", "fixed_features"): Indices(
        lambda v: RegressionQuery(X, (0, v), 0.1, 1.0, DOMAIN), "fixed_features", 3, 1, None
    ),
    ("FeatureGrouping", "groups"): Indices(
        lambda v: FeatureGrouping(((0,), (v,), (2,)), ("a", "b", "c")), "groups", 3, 1, 0
    ),
    ("FeatureOrdering", "resolved"): Indices(lambda v: FeatureOrdering((0, v, 2)), "ordering", 3, 1, 0),
    ("FeatureGrouping.features_of", "group_indices"): Indices(
        lambda v: GROUPING.features_of((0, v)), "group_indices", 3, 1, None
    ),
    ("FeatureGrouping.ids_of", "group_indices"): Indices(
        lambda v: GROUPING.ids_of((0, v)), "group_indices", 3, 1, 0
    ),
    ("build_from_merge_sets", "merge_sets"): Indices(
        lambda v: build_from_merge_sets(NET, LB, ((0, v),)), "merge_sets[0]", 3, 1, 0
    ),
    ("build_from_merge_sets", "bucket members"): Indices(
        lambda v: build_from_merge_sets(NET, LB, ((0, 1),), buckets=(((0, v), (2,)),)), "buckets[0]", 3, 1, 0
    ),
    ("build_from_merge_sets", "bucket sizes"): Indices(
        lambda v: build_from_merge_sets(NET, LB, ((0, 1),), buckets=(((0, 1), (1, v)),)), "buckets[0] sizes", 3, 1, None
    ),
    ("MergeSpec", "per_layer_merged"): Indices(lambda v: MergeSpec(((0, v),), (3,), "x"), "merge_sets[0]", 3, 1, 0),
}


def bad_members(indices: Indices):
    yield "1"
    yield True
    yield 2.5
    yield -1
    yield indices.size
    if indices.repeat is not None:
        yield indices.repeat


@pytest.mark.parametrize(
    "indices, member",
    [
        pytest.param(indices, member, id=f"{where}.{name}={member!r}")
        for (where, name), indices in INDEX_ARGUMENTS.items()
        for member in bad_members(indices)
    ],
)
def test_a_bad_index_is_named(indices, member):
    with pytest.raises(ValidationError, match=f"^{re.escape(indices.name)}"):
        indices.call(member)


@pytest.mark.parametrize("where, name", list(INDEX_ARGUMENTS))
def test_each_index_row_accepts_its_good_member(where, name):
    indices = INDEX_ARGUMENTS[where, name]
    indices.call(indices.good)


NET6 = random_network(4, (6,), 3, "relu", seed=1)
LB6 = propagate_box(NET6, NET6.input_domain)
PIXELS = FeatureGrouping.rgb_pixels(6)


@pytest.mark.parametrize(
    "call, message",
    [
        # Float bucket members raised a bare IndexError in the build.
        (
            lambda: build_from_merge_sets(NET6, LB6, ({0, 1},), buckets=((np.array([0.0, 1.0]), np.array([2])),)),
            "buckets[0] must hold integer neuron indices, got 0.0",
        ),
        # Float sizes raised a bare TypeError; bool sizes were accepted.
        (
            lambda: build_from_merge_sets(NET6, LB6, ({0, 1},), buckets=((np.array([0, 1]), np.array([2.0])),)),
            "buckets[0] sizes must hold integer bucket sizes, got 2.0",
        ),
        (
            lambda: build_from_merge_sets(NET6, LB6, ({0, 1},), buckets=((np.array([0, 1]), np.array([True, True])),)),
            "buckets[0] sizes must hold integer bucket sizes, got True",
        ),
        # Named neither the merge set nor the neuron.
        (lambda: build_from_merge_sets(NET6, LB6, ({0, 9},)), "merge_sets[0] must be below 6, got 9"),
        # A bare TypeError, and a fraction accepted.
        (lambda: MergeSpec((frozenset({"a"}),), (6,), "x"), "merge_sets[0] must hold integer neuron indices, got 'a'"),
        (lambda: MergeSpec((frozenset({0.5}),), (6,), "x"), "merge_sets[0] must hold integer neuron indices, got 0.5"),
        # -1 wrapped to the last group; 5 and 1.0 raised a bare IndexError and TypeError.
        (lambda: PIXELS.features_of((-1,)), "group_indices must be nonnegative, got -1"),
        (lambda: PIXELS.ids_of((-1,)), "group_indices must be nonnegative, got -1"),
        (lambda: PIXELS.features_of((5,)), "group_indices must be below 2, got 5"),
        (lambda: PIXELS.ids_of((5,)), "group_indices must be below 2, got 5"),
        (lambda: PIXELS.features_of((1.0,)), "group_indices must hold integer group indices, got 1.0"),
        (lambda: PIXELS.ids_of((1.0,)), "group_indices must hold integer group indices, got 1.0"),
        # Named neither the group nor the member.
        (lambda: FeatureOrdering((0, 2)), "ordering must be below 2, got 2"),
        (lambda: FeatureGrouping(((0,), (2,)), ("a", "b")), "groups[1] must be below 2, got 2"),
        (
            lambda: FeatureGrouping(((0, 1), (1, 2)), ("a", "b")),
            "groups must hold each feature once, got 1 more than once",
        ),
        (
            lambda: FeatureGrouping(((0, 0), (1,)), ("a", "b")),
            "groups[0] must hold each feature once, got 0 more than once",
        ),
        # Groups that are not tuples raised a bare ValueError and a bare TypeError.
        (
            lambda: FeatureGrouping((np.array([0, 1]), np.array([2])), ("a", "b")),
            "groups[0] must be a tuple of feature indices, got array([0, 1])",
        ),
        (lambda: FeatureGrouping(((0, 1), 2), ("a", "b")), "groups[1] must be a tuple of feature indices, got 2"),
    ],
)
def test_an_index_is_named_with_its_member(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_bucket_lists_are_kept_as_integer_arrays():
    # Lists were stored as given, and refining the reduction raised a bare TypeError.
    anet = build_from_merge_sets(NET6, LB6, ({0, 1, 2},), buckets=(([0, 1, 2], [3]),))
    members, sizes = anet.buckets[0]
    assert members.dtype.kind == sizes.dtype.kind == "i"
    assert members.tolist() == [0, 1, 2] and sizes.tolist() == [3]
    as_arrays = build_from_merge_sets(NET6, LB6, ({0, 1, 2},), buckets=((np.array([0, 1, 2]), np.array([3])),))
    refined, expected = refine(NET6, anet, LB6, 0.8), refine(NET6, as_arrays, LB6, 0.8)
    assert refined.spec.per_layer_merged == expected.spec.per_layer_merged


def test_refine_checks_each_merged_neuron_once(monkeypatch):
    # Its buckets' members are its merge sets, which the spec checks.
    from provex import abstraction

    net = random_network(4, (6, 5), 3, "relu", seed=1)
    lb = propagate_box(net, net.input_domain)
    anet = build_abstract(net, lb, 0.2)
    checked = []
    def recording(name, *args, **kwargs):
        checked.append(name)
        return check_indices(name, *args, **kwargs)

    monkeypatch.setattr(abstraction, "check_indices", recording)
    refined = refine(net, anet, lb, 0.6)
    assert checked == ["merge_sets[0]", "merge_sets[1]", "buckets[0] sizes", "buckets[1] sizes"]
    assert refined.spec.merged_count > 0


@pytest.mark.parametrize(
    "values, each, message",
    [
        ([0, 1.5], None, "x must hold integer indices, got 1.5"),
        ((0, -1), None, "x must be nonnegative, got -1"),
        ({0, 3}, None, "x must be below 3, got 3"),
        ([0, 2, 0], "neuron", "x must hold each neuron once, got 0 more than once"),
        (np.array([0, 2, 0]), "neuron", "x must hold each neuron once, got 0 more than once"),
        (np.array([0, 3], dtype=np.uint64), None, "x must be below 3, got 3"),
        (np.array([0.0]), None, "x must hold integer indices, got 0.0"),
        (np.array([[0, 1]]), None, "x must hold integer indices, got [0, 1]"),
        ([np.bool_(True)], None, "x must hold integer indices, got "),  # numpy's repr of it varies by version
    ],
)
def test_index_forms(values, each, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        check_indices("x", values, 3, each=each)


@pytest.mark.parametrize(
    "values",
    [[0, 2, 0], (np.int32(2), 1), frozenset({0, 1, 2}), range(3), np.array([2, 0], dtype=np.uint64), np.array([])],
)
def test_good_indices_pass_whole(values):
    assert check_indices("x", values, 3) is values


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("explain", "--seed", "-1"),
        ("explain", "--epsilon", "-0.5"),
        ("explain", "--epsilon", "nan"),
        ("explain", "--timeout", "nan"),
        ("verify", "--seed", "-1"),
        ("verify", "--epsilon", "nan"),
        ("verify-oracle", "--budget", "-1"),
        ("bench", "--seed", "-1"),
        ("bench", "--epsilon", "nan"),
        ("fixture", "--seed", "-1"),
        ("fixture", "--instances", "-1"),
    ],
)
def test_cli_names_the_flag_before_reading_a_file(tmp_path, capsys, command, flag, value):
    # Neither file exists, so an error that names the flag was raised
    # before either was read.
    files = ["--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "x.csv")]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "explain": ["explain", *files, "--epsilon", "0.5", *out],
        "verify": ["verify", *files, "--subset", "1", "--epsilon", "0.5"],
        "verify-oracle": ["verify", *files, "--subset", "1", "--epsilon", "0.5", "--backend", "oracle"],
        "bench": ["bench", *files, "--epsilon", "0.5", *out],
        "fixture": ["fixture", *out],
    }[command]
    assert main([*argv, flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be nonnegative, got ")
    assert not (tmp_path / "out").exists()
