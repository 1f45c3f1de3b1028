"""JSON schemas and (de)serialization for hierarchy, truth and score files.

Hierarchy documents carry the node count and a fine-to-coarse list of
levels, each with its group count, a membership vector over the original
nodes, and the estimated group-affinity matrix.  Truth files share the
schema and add the finest-level generating probabilities under
``omega_fine``.  The schemas check a membership vector only for being an
array; ``load_levels`` checks its entries by building a ``Partition``
(``n`` integer labels ``0..k-1``, each used).  ``validate_document`` gives
the verdict, path and message of ``jsonschema.validate`` without its
per-call check of the schema against the metaschema, and checks an array
of numbers (an ``omega``, ``omega_fine`` or ``xi`` row) in one pass.
Outputs are written with sorted keys so equal inputs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .errors import SchemaError
from .graph import Partition
from .hierarchy import HierarchyResult

__all__ = [
    "HIERARCHY_SCHEMA",
    "TRUTH_SCHEMA",
    "SCORE_SCHEMA",
    "hierarchy_to_dict",
    "truth_to_dict",
    "score_to_dict",
    "load_levels",
    "dump_json",
    "validate_document",
]

_LEVEL_SCHEMA = {
    "type": "object",
    "required": ["k", "membership", "omega"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "membership": {"type": "array"},
        "omega": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
    },
}

HIERARCHY_SCHEMA = {
    "type": "object",
    "required": ["n", "levels"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "levels": {"type": "array", "minItems": 1, "items": _LEVEL_SCHEMA},
        "seed": {"type": "integer"},
        "diagnostics": {"type": "array"},
    },
}

TRUTH_SCHEMA = {
    "type": "object",
    "required": ["n", "levels", "omega_fine"],
    "properties": {
        **HIERARCHY_SCHEMA["properties"],
        "omega_fine": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
    },
}

SCORE_SCHEMA = {
    "type": "object",
    "required": ["xi", "precision", "recall"],
    "properties": {
        "xi": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "precision": {"type": "number"},
        "recall": {"type": "number"},
    },
}


def _level_dict(k: int, membership: np.ndarray, omega: np.ndarray) -> dict:
    return {
        "k": int(k),
        "membership": np.asarray(membership).tolist(),
        "omega": np.asarray(omega).tolist(),
    }


def hierarchy_to_dict(result: HierarchyResult, seed: int | None = None) -> dict:
    doc = {
        "n": int(result.n),
        "levels": [
            _level_dict(
                level.k, level.composed_partition.assignment, level.affinity.values
            )
            for level in result.levels
        ],
        "diagnostics": result.diagnostics,
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def truth_to_dict(partitions, level_omegas, omega_fine, seed: int | None = None) -> dict:
    doc = {
        "n": int(partitions[0].n),
        "levels": [
            _level_dict(p.k, p.assignment, omega)
            for p, omega in zip(partitions, level_omegas)
        ],
        "omega_fine": np.asarray(omega_fine).tolist(),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def score_to_dict(report) -> dict:
    return {
        "xi": np.asarray(report.xi).tolist(),
        "precision": float(report.precision),
        "recall": float(report.recall),
    }


# The item schema of the omega, omega_fine and xi rows, and the Python types
# that ``json.load`` gives a JSON number.
_NUMBER_ITEMS = {"type": "number"}
_NUMBER_TYPES = frozenset({int, float})


@functools.cache
def _validator_class(cls):
    """``cls`` with an ``items`` keyword that accepts an array of JSON
    numbers in one pass and hands any other array to ``cls``'s own
    ``items``, which walks it entry by entry."""
    import jsonschema

    stock = cls.VALIDATORS["items"]

    def items(validator, item_schema, instance, schema):
        if not (
            item_schema == _NUMBER_ITEMS
            and isinstance(instance, list)
            and set(map(type, instance)) <= _NUMBER_TYPES
        ):
            yield from stock(validator, item_schema, instance, schema)

    return jsonschema.validators.extend(cls, {"items": items})


def validate_document(doc, schema) -> None:
    """Raise ``SchemaError`` on a mismatch; ``load_levels`` checks membership entries.

    The verdict, path and message are those of ``jsonschema.validate``.  The
    schema itself is not checked against its metaschema (the module's
    schemas are constants, checked by the tests).  An array whose item
    schema is ``{"type": "number"}`` passes in one pass when every entry
    is an ``int`` or ``float``; any other array is walked entry by entry,
    so a mismatch yields the same errors for ``best_match`` to choose from.
    """
    # imported on first use: it adds about 60 ms to every start of the CLI
    import jsonschema

    cls = _validator_class(jsonschema.validators.validator_for(schema))
    error = jsonschema.exceptions.best_match(cls(schema).iter_errors(doc))
    if error is not None:
        raise SchemaError(
            f"document does not match schema at {error.json_path}: {error.message}",
            json_path=error.json_path,
        ) from error


def load_levels(path, schema=HIERARCHY_SCHEMA) -> tuple[int, list]:
    """Read a hierarchy/truth file and return (n, fine-to-coarse partitions)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays nested deeper than the parser can follow
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    validate_document(doc, schema)
    n = doc["n"]
    partitions = []
    for idx, level in enumerate(doc["levels"]):
        where = f"$.levels[{idx}].membership"
        try:
            partition = Partition.from_labels(np.asarray(level["membership"]))
        except ValueError as exc:
            raise SchemaError(
                f"invalid membership at {where}: {exc}", json_path=where
            ) from exc
        if partition.n != n:
            raise SchemaError(
                f"{where} has {partition.n} entries, expected {n}", json_path=where
            )
        if partition.k != level["k"]:
            raise SchemaError(
                f"level {idx} declares k={level['k']} but {where} has "
                f"{partition.k} groups",
                json_path=f"$.levels[{idx}].k",
            )
        partitions.append(partition)
    return n, partitions


def dump_json(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
