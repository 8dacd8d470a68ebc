"""The JSON-lines reader behind every manifest (MOS, JND, quadruples).

Each non-blank line holds one JSON object. A line that is not UTF-8, not
JSON, not an object, or that the caller's parser rejects raises
ManifestError naming the file and the line.
"""

from __future__ import annotations

import json


class ManifestError(ValueError):
    """Malformed manifest; the message starts with `path:line:`."""


def read_jsonl(path, parse) -> list:
    """[parse(record) for each record]. `parse` signals a missing field
    with KeyError and any other bad value with TypeError or ValueError."""
    records = []
    with open(path, "rb") as f:
        for n, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise TypeError("record is not a JSON object")
                records.append(parse(rec))
            except KeyError as e:
                raise ManifestError("%s:%d: no field %s"
                                    % (path, n, e)) from e
            except (TypeError, ValueError, OverflowError) as e:
                raise ManifestError("%s:%d: %s" % (path, n, e)) from e
    return records


def str_field(rec: dict, key: str) -> str:
    """rec[key], which must be a string (a file path, say)."""
    value = rec[key]
    if not isinstance(value, str):
        raise TypeError("field %r is not a string" % key)
    return value
