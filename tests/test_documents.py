"""The one reader of the chain's JSON documents: its four refusals, and a
seeded fuzz of all twelve loaders in which a malformed document is
refused with ``ValueError``, never with a ``KeyError``, ``TypeError``,
``AttributeError`` or ``IndexError``."""

import copy
import random

import pytest

from tilechain.compiler import compile_tiles, initial_map
from tilechain.documents import fields, wrong_type
from tilechain.edges import Ring, edgemap_from_dict, edgemap_to_dict
from tilechain.engine import build_accepting_tiling
from tilechain.groups import (make_submonoid_instance, submonoid_from_dict,
                              submonoid_to_dict)
from tilechain.machines import mini_eraser
from tilechain.modules import (WitnessTerm, element_from_dict,
                               element_to_dict, instance_from_dict,
                               instance_to_dict, tiling_to_instance,
                               tiling_to_subset_sum, witness_from_dict,
                               witness_to_dict)
from tilechain.rational import (_wreath_from_dict, _wreath_to_dict,
                                make_rational_instance, nfa_from_dict,
                                nfa_to_dict, rational_from_dict,
                                rational_to_dict, regex_to_nfa)
from tilechain.tiling import (certificate_from_dict, certificate_to_dict,
                              system_from_dict, system_to_dict,
                              tile_from_dict, tile_to_dict)
from tilechain.tm import tm_from_dict, tm_to_dict

from conftest import JSON_TYPE, JSON_VALUES

SPEC = {"n": int, "label": (str, type(None)), "tags": [int], "ring": None}


class TestFields:
    def test_values_in_spec_order(self):
        data = {"ring": 5, "tags": [1, 2], "label": None, "n": -3}
        assert fields(data, "thing", SPEC) == [-3, None, [1, 2], 5]

    def test_absent_field_takes_its_default(self):
        data = {"n": 1, "label": "a", "tags": []}
        assert fields(data, "thing", SPEC, {"ring": "Z"}) == [1, "a", [],
                                                              "Z"]

    @pytest.mark.parametrize("data, kind", [([], "list"), (None, "NoneType"),
                                            ("{}", "str"), (3, "int")])
    def test_not_an_object(self, data, kind):
        with pytest.raises(ValueError) as refused:
            fields(data, "thing", SPEC)
        assert str(refused.value) == f"thing must be a JSON object, not {kind}"

    def test_unknown_fields_are_named_in_order(self):
        data = {"n": 1, "label": "a", "tags": [], "ring": "Z", "z": 0, "b": 1}
        with pytest.raises(ValueError) as refused:
            fields(data, "thing", SPEC)
        assert str(refused.value) == "unknown thing fields: ['b', 'z']"

    def test_missing_fields_are_named_in_order(self):
        with pytest.raises(ValueError) as refused:
            fields({"label": "a"}, "thing", SPEC, {"ring": "Z"})
        assert str(refused.value) == "missing thing fields: ['n', 'tags']"

    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "thing field 'n' must be an integer, not bool"),
        ("n", 1.0, "thing field 'n' must be an integer, not float"),
        ("label", 5, "thing field 'label' must be a string or null, not int"),
        ("tags", "1 2", "thing field 'tags' must be a list, not str"),
        ("tags", [1, "2"], "thing field 'tags' must be an integer, not str"),
    ])
    def test_wrong_json_type(self, field, value, message):
        data = dict({"n": 1, "label": "a", "tags": [], "ring": "Z"},
                    **{field: value})
        with pytest.raises(ValueError) as refused:
            fields(data, "thing", SPEC)
        assert str(refused.value) == message

    def test_wrong_type_names_the_wanted_type(self):
        assert str(wrong_type("placement", "x", "3", int)) == \
            "placement field 'x' must be an integer, not str"
        assert str(wrong_type("rational instance", "bindings", [], dict)) == \
            "rational instance field 'bindings' must be an object, not list"


def loader_documents():
    """(loader name, loader, well-formed document) for each of the twelve
    loaders; the witness loader gets one document per mode."""
    tm = mini_eraser()
    ts = compile_tiles(tm)
    f0 = initial_map(tm, "a")
    ring = Ring(2)
    subset = tiling_to_subset_sum(ts, initial_map(tm, "a", ring))
    semimodule = tiling_to_instance(ts, f0)
    rat = make_rational_instance(subset)
    cert = certificate_to_dict(build_accepting_tiling(tm, "a", 500))
    # Every other placement names its tile, looked up in the system.
    for row in cert["placements"][::2]:
        row["tile"] = row["tile"]["name"]
    return [
        ("tm_from_dict", tm_from_dict, tm_to_dict(tm)),
        ("tile_from_dict", tile_from_dict, tile_to_dict(ts.tiles[3])),
        ("system_from_dict", system_from_dict, system_to_dict(ts)),
        ("certificate_from_dict",
         lambda data: certificate_from_dict(data, ts), cert),
        ("edgemap_from_dict", edgemap_from_dict, edgemap_to_dict(f0)),
        ("element_from_dict", element_from_dict,
         element_to_dict(subset.generators[0])),
        ("instance_from_dict", instance_from_dict, instance_to_dict(subset)),
        ("witness_from_dict", witness_from_dict,
         witness_to_dict("semimodule", (WitnessTerm(0, 1, 2, 3),
                                        WitnessTerm(2, -1, 0, 1)))),
        ("witness_from_dict", witness_from_dict,
         witness_to_dict("subset-sum", ((0, 0, 0), (1, 2, 3)))),
        ("submonoid_from_dict", submonoid_from_dict,
         submonoid_to_dict(make_submonoid_instance(semimodule))),
        ("nfa_from_dict", nfa_from_dict, nfa_to_dict(regex_to_nfa(rat.expr))),
        ("_wreath_from_dict", lambda data: _wreath_from_dict(data, ring),
         _wreath_to_dict(rat.bindings["g0"])),
        ("rational_from_dict", rational_from_dict, rational_to_dict(rat)),
    ]


_SCALARS = [value for kind in ("number", "bool", "null", "string")
            for value in JSON_VALUES[kind]]


def mutate(rng, document):
    """A copy of ``document`` with one change at the end of a seeded walk
    down from the top: a field or item dropped, a value swapped for one of
    another JSON type, or a nested object or list replaced by a scalar."""
    data = copy.deepcopy(document)
    op = rng.choice(("drop", "swap", "flatten"))
    node = data
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        nested = [key for key in keys if isinstance(node[key], (dict, list))]
        if op == "flatten" and not nested:
            op = "swap"
        key = rng.choice(nested if op == "flatten" else keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.5:
            node = child
            continue
        if op == "drop":
            del node[key]
        elif op == "flatten":
            node[key] = rng.choice(_SCALARS)
        else:
            other = rng.choice([kind for kind in JSON_VALUES
                                if kind != JSON_TYPE[type(child)]])
            node[key] = rng.choice(JSON_VALUES[other])
        return data


CASES_PER_DOCUMENT = 60


def test_malformed_documents_raise_value_error_only():
    documents = loader_documents()
    assert len({name for name, _, _ in documents}) == 12
    rng = random.Random(20260829)
    for name, loader, document in documents:
        loader(copy.deepcopy(document))
        refused = 0
        for _ in range(CASES_PER_DOCUMENT):
            mutant = mutate(rng, document)
            try:
                loader(mutant)
            except ValueError:
                refused += 1
            except Exception as exc:
                pytest.fail(f"{name} raised {type(exc).__name__}: {exc} "
                            f"on {mutant}")
        # Most changes break the document; a fuzz that refuses nothing
        # has stopped reaching the loader.
        assert refused >= CASES_PER_DOCUMENT // 2, (name, refused)
