"""Content-addressed computation cache: atomic JSON entries keyed by problem and command."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys

ENV_VAR = "REESLAB_CACHE"
DEFAULT_DIR = ".reeslab-cache"


def cache_dir():
    return os.environ.get(ENV_VAR, DEFAULT_DIR)


@functools.cache
def source_digest():
    """sha256 of the package's own *.py sources, read once per process in sorted name order.

    Keying entries on it keeps results of older code from being served.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                data = fh.read()
            digest.update(b"%s\0%d\0" % (name.encode(), len(data)))
            digest.update(data)
    return digest.hexdigest()


def cache_key(problem_hash, command, params, source):
    blob = json.dumps(
        {"problem": problem_hash, "command": command, "params": params, "source": source},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_lookup_store(key, producer, enabled=True, directory=None):
    """Return the cached JSON value, or run the producer and store atomically.

    Corrupt entries are recomputed and overwritten with a warning.
    """
    if not enabled:
        return producer()
    directory = directory or cache_dir()
    path = os.path.join(directory, key + ".json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (json.JSONDecodeError, OSError) as exc:
            print("warning: corrupt cache entry %s (%s); recomputing" % (path, exc), file=sys.stderr)
    value = producer()
    import tempfile  # here, so that a hit loads no tempfile (nor its shutil and random)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(value, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return value
