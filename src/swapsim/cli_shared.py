"""What the command handlers share: output, seeds and the config documents.

Every byte a command writes goes through here: the 12-significant-digit
rendering of numbers and report documents, and ``_atomic_open``, which
commits every file swapsim writes.  ``swapsim.cli`` imports this module at
start, so the benchmark's byte counting, which replaces ``open`` and ``os``
in the swapsim modules already loaded, sees every file a command writes.
The handler modules import from here, never from ``swapsim.cli``, which
``python -m swapsim.cli`` runs as ``__main__``: importing it would compile
and run it a second time.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

from . import __version__
from .records import write_records


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value):
    """Recursively round floats in a report document to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if type(value) in (list, tuple):  # not a NamedTuple: a report object must not pass as a list
        return [_round12(item) for item in value]
    raise TypeError(f"cannot render {type(value).__name__} in a report")


@contextlib.contextmanager
def _atomic_open(*paths: str):
    """Text handles, one per path, on temporary files that replace the paths, in order, when the block succeeds.

    Each temporary file sits beside its path (same file system, so each
    rename is atomic) with open(path, "w")'s mode, 0o666 less the umask, not
    mkstemp's 0o600.  If the block raises, no path is touched.  If a replace
    fails, each path already replaced gets its old file back, or is removed
    if it had none: until the last replace, an old file waits beside its
    path under a temporary name.  A directory at a path stays where it is,
    so its replace fails.  After any failure no temporary file is left.
    """
    import tempfile

    temps = []  # every temporary file made; after a failure, those no replace consumed are removed
    undo = []  # (path, its old file set aside or None) for each path replaced before the last

    def temporary(path: str) -> tuple[int, str]:
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        temps.append(tmp_path)
        os.chmod(tmp_path, 0o666 & ~umask)
        return fd, tmp_path

    os.umask(umask := os.umask(0))  # reads the umask, which only setting it returns
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(os.fdopen(temporary(path)[0], "w", encoding="utf-8")) for path in paths]
        for index, (path, tmp_path) in enumerate(zip(paths, temps[:len(paths)])):
            if index < len(paths) - 1:  # a later replace may fail, and this one must then be undone
                aside = None
                if os.path.isfile(path):
                    fd, aside = temporary(path)
                    os.close(fd)
                    os.replace(path, aside)
                undo.append((path, aside))
            os.replace(tmp_path, path)
    except BaseException:
        for path, aside in reversed(undo):
            if aside is not None:
                os.replace(aside, path)
            elif os.path.isfile(path):
                os.unlink(path)
        for tmp_path in temps:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
        raise
    for aside in temps[len(paths):]:
        os.unlink(aside)


def _emit(text: str, out_path) -> None:
    if out_path:
        with _atomic_open(out_path) as (handle,):
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_report_doc(doc: dict) -> str:
    return json.dumps(_round12(doc), indent=2) + "\n"


def _write_batch(out: str, chunks, command: str, config_doc: dict, seed: int) -> int:
    """Write the records and the manifest beside them, then name both on stdout.

    One _atomic_open commits both: the manifest is replaced first and the
    records last, and if the records' replace fails the manifest is put
    back as it was, so no manifest ever describes records that were not
    written.
    """
    manifest_path = out + ".manifest.json"
    with _atomic_open(manifest_path, out) as (manifest_handle, handle):
        count = write_records(handle, chunks)
        manifest = {
            "artifact": "swapsim",
            "version": __version__,
            "command": command,
            "config": config_doc,
            "seed": seed,
            "trial_start": 0,
            "trial_end": count,
            "record_count": count,
            "outputs": {"records": out},
        }
        manifest_handle.write(_render_report_doc(manifest))
    sys.stdout.write(f"wrote {count} records to {out}\n")
    sys.stdout.write(f"manifest: {manifest_path}\n")
    return 0


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("SWAPSIM_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SWAPSIM_SEED must be an integer, got {env!r}") from None


def _angles_doc(config) -> dict:
    return {
        "angles0": [config.angles0[0].degrees, config.angles0[1].degrees],
        "angles3": [config.angles3[0].degrees, config.angles3[1].degrees],
    }
