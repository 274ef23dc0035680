"""Serialisation of models and their invariants: every format the
command line prints.

ExportRecord is one model's record, written as the JSON record that the
`invariants` and `export` commands share (EXPORT_SCHEMA is its
published JSON Schema) or as the text tables of `invariants`.  The
record's checks are named once, in RECORD_CHECKS, which every format
reads.  to_json writes the exact bytes of json.dumps(to_dict(),
indent=2) straight from the fields, so a new field goes into to_dict,
to_json and EXPORT_SCHEMA together; the tests compare to_json with
json.dumps and catch a field that one of them misses.  The compact
format of `export --format salamon` writes each differential as sums of
wedge pairs of generator indices, conjugates suffixed with `b`, as
customary in the low-dimensional classification tables.
"""

import json
from dataclasses import dataclass
from itertools import starmap
from json.encoder import encode_basestring_ascii as _quoted

from .cohomology import closed_table, oracle_table, frolicher_holds, verify_symmetry
from .model import (
    ComplexModel,
    build_algebra,
    nijenhuis_vanishes,
    structure_equations,
)
from .partitions import Partition

# The record's checks as (name, JSON type), in the order every format
# lists them; a check that may be null is None where it does not apply.
RECORD_CHECKS = (
    ("frolicher", "boolean"),
    ("symmetry", ["boolean", "null"]),
    ("nijenhuis", "boolean"),
)
_CHECK_TEXT = {True: "yes", False: "no", None: "n/a"}
_CHECK_JSON = {True: "true", False: "false", None: "null"}

# The record as json.dumps(to_dict(), indent=2) lays it out, key by key,
# and the objects of its equations and their terms, at depths 2 and 4;
# to_json fills in each value already encoded.
_RECORD_JSON = (
    '{\n  "n": %d,\n  "q": %s,\n  "j": %d,\n  "epsilon": %d,\n  "m": %s,\n'
    '  "step": %d,\n  "betti": %s,\n  "hodge": %s,\n  "equations": %s,\n'
    '  "checks": %s,\n  "source": %s\n}\n'
)
_EQUATION_JSON = '{\n      "gen": %s,\n      "d": %s\n    }'
_TERM_JSON = '{\n          "coef": %d,\n          "factors": %s\n        }'
_INDENT = ["\n" + "  " * depth for depth in range(7)]

EXPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "almostabelian model record",
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "q", "j", "epsilon", "m", "step", "betti", "hodge", "equations", "checks"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "q": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "j": {"type": "integer", "minimum": 1},
        "epsilon": {"enum": [0, 1]},
        "m": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
        "step": {"type": "integer", "minimum": 1},
        "betti": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "hodge": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "equations": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["gen", "d"],
                "properties": {
                    "gen": {"type": "string"},
                    "d": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["coef", "factors"],
                            "properties": {
                                "coef": {"type": "integer"},
                                "factors": {
                                    "type": "array",
                                    "items": {"type": "string"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                            },
                        },
                    },
                },
            },
        },
        "checks": {
            "type": "object",
            "additionalProperties": False,
            "required": [name for name, _ in RECORD_CHECKS],
            "properties": {name: {"type": kind} for name, kind in RECORD_CHECKS},
        },
        "source": {"enum": ["closed-form", "oracle"]},
    },
}


def _json_block(items, depth, brackets="[]"):
    """Encoded items as json.dumps(indent=2) lays out a list (or, with
    brackets "{}", an object's "key": value items) whose closing bracket
    is indented to depth."""
    body = ("," + _INDENT[depth + 1]).join(items)
    if not body:
        return brackets
    return brackets[0] + _INDENT[depth + 1] + body + _INDENT[depth] + brackets[1]


def _equation_json(gen, terms):
    """One object of the record's equations, at depth 2."""
    d = _json_block(
        (_TERM_JSON % (coef, _json_block(map(_quoted, factors), 5)) for coef, factors in terms), 3
    )
    return _EQUATION_JSON % (_quoted(gen), d)


def factor_label(factor):
    """Serialised name of a 1-form factor; conjugation marked by `_bar`."""
    name, bar = factor
    return name + "_bar" if bar else name


@dataclass(frozen=True)
class ExportRecord:
    """Everything the CLI reports about one model, JSON-ready."""

    n: int
    q: tuple
    j: int
    epsilon: int
    m: tuple
    step: int
    betti: tuple
    hodge: tuple
    equations: tuple  # (gen, ((coef, (label, label)), ...)) in generator order
    checks: tuple  # ((name, value), ...) in the order of RECORD_CHECKS
    source: str

    @classmethod
    def for_model(cls, model, source="closed-form"):
        table = closed_table(model) if source == "closed-form" else oracle_table(model)
        values = (
            frolicher_holds(table.betti, table.hodge),
            verify_symmetry(model, table=table).ok if model.epsilon == 0 else None,
            nijenhuis_vanishes(build_algebra(model)),
        )
        frozen_eqs = tuple(
            (gen, tuple((coef, (factor_label(f1), factor_label(f2))) for coef, (f1, f2) in terms))
            for gen, terms in structure_equations(model).rules
        )
        return cls(
            n=model.n,
            q=model.q.parts,
            j=model.j,
            epsilon=model.epsilon,
            m=model.m.parts,
            step=model.step,
            betti=table.betti,
            hodge=table.hodge,
            equations=frozen_eqs,
            checks=tuple((name, value) for (name, _), value in zip(RECORD_CHECKS, values)),
            source=table.source,
        )

    def model(self):
        return ComplexModel(self.n, Partition(self.q), self.j)

    def to_dict(self):
        return {
            "n": self.n,
            "q": list(self.q),
            "j": self.j,
            "epsilon": self.epsilon,
            "m": list(self.m),
            "step": self.step,
            "betti": list(self.betti),
            "hodge": [list(row) for row in self.hodge],
            "equations": [
                {
                    "gen": gen,
                    "d": [{"coef": c, "factors": list(fs)} for c, fs in terms],
                }
                for gen, terms in self.equations
            ],
            "checks": dict(self.checks),
            "source": self.source,
        }

    def to_json(self):
        """The bytes of json.dumps(self.to_dict(), indent=2) and a newline,
        written straight from the fields: indent would send json.dumps
        through its pure-Python encoder."""
        return _RECORD_JSON % (
            self.n,
            _json_block(map(str, self.q), 1),
            self.j,
            self.epsilon,
            _json_block(map(str, self.m), 1),
            self.step,
            _json_block(map(str, self.betti), 1),
            _json_block((_json_block(map(str, row), 2) for row in self.hodge), 1),
            _json_block(starmap(_equation_json, self.equations), 1),
            _json_block(
                (_quoted(name) + ": " + _CHECK_JSON[value] for name, value in self.checks), 1, "{}"
            ),
            _quoted(self.source),
        )

    @classmethod
    def from_dict(cls, data):
        return cls(
            n=data["n"],
            q=tuple(data["q"]),
            j=data["j"],
            epsilon=data["epsilon"],
            m=tuple(data["m"]),
            step=data["step"],
            betti=tuple(data["betti"]),
            hodge=tuple(tuple(row) for row in data["hodge"]),
            equations=tuple(
                (item["gen"], tuple((t["coef"], tuple(t["factors"])) for t in item["d"]))
                for item in data["equations"]
            ),
            checks=tuple((name, data["checks"][name]) for name, _ in RECORD_CHECKS),
            source=data.get("source", "closed-form"),
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_text(self):
        """The text tables of `invariants`: the model, the source, the
        Betti numbers, the Hodge grid one row per p, and the checks, each
        yes, no or n/a."""
        lines = [
            "model: n=%d q=[%s] j=%d eps=%d m=[%s] step=%d"
            % (self.n, ",".join(map(str, self.q)), self.j, self.epsilon,
               ",".join(map(str, self.m)), self.step),
            "source: %s" % self.source,
            "betti: " + " ".join(map(str, self.betti)),
            "hodge (rows p=0..%d, cols q=0..%d):" % (self.n + 1, self.n + 1),
        ]
        lines.extend("  " + " ".join(map(str, row)) for row in self.hodge)
        lines.append(
            "checks: " + " ".join("%s=%s" % (name, _CHECK_TEXT[value]) for name, value in self.checks)
        )
        return "\n".join(lines) + "\n"


def _index_token(idx, bar):
    token = str(idx) if idx <= 9 else "(%d)" % idx
    return token + "b" if bar else token


def compact_equations(eqs):
    """One-line structure equations in the compact index notation.

    Generators are numbered from 1 in their canonical order; each entry
    is dphi^k as a sum of wedge pairs, a conjugate index carrying a `b`
    suffix, e.g. `(0, 11b)` for the smallest overlap model.
    """
    index = {name: i + 1 for i, name in enumerate(eqs.generators)}
    entries = []
    for _, rule in eqs.rules:
        terms = []
        for coef, (f1, f2) in rule:
            pair = _index_token(index[f1[0]], f1[1]) + _index_token(index[f2[0]], f2[1])
            if coef == 1:
                terms.append(pair)
            elif coef == -1:
                terms.append("-" + pair)
            else:
                terms.append("%d*%s" % (coef, pair))
        entries.append("+".join(terms) if terms else "0")
    return "(" + ", ".join(entries) + ")"
