"""The exception base the CLI maps to exit code 2, and a JSON reader raising it."""

import json
from pathlib import Path


class EmoMusicError(Exception):
    """Base class for all data/contract errors raised by this package."""


def read_json(path: str | Path, what: str):
    """The JSON document at ``path``; a file that does not parse raises EmoMusicError."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise EmoMusicError(f"{what} {path} is not valid JSON: {exc}") from exc
