"""The exception base the CLI maps to exit code 2, and a JSON reader and a
directory maker raising it."""

import json
from pathlib import Path


class EmoMusicError(Exception):
    """Base class for all data/contract errors raised by this package."""


def read_json(path: str | Path, what: str, keys: tuple[str, ...] = ()):
    """The JSON document at ``path``. A file that cannot be read or does not
    parse, or, when ``keys`` are given, one that is not an object holding
    each of them, raises EmoMusicError."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise EmoMusicError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise EmoMusicError(f"{what} {path} is not valid JSON: {exc}") from exc
    missing = [key for key in keys if not (isinstance(doc, dict) and key in doc)]
    if missing:
        raise EmoMusicError(f"{what} {path} lacks key(s) {', '.join(missing)}")
    return doc


def make_dir(path: str | Path, what: str) -> Path:
    """Create the directory ``path`` and its parents unless it exists; a path
    that names a file, or one that cannot be created, raises EmoMusicError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EmoMusicError(f"cannot create {what} {path}: {exc.strerror or exc}") from exc
    return path
