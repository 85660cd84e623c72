"""In-memory span tracing of swapsim, installed from outside the package.

The program has no tracing of its own yet, so the benchmark wraps the public
functions of each swapsim module (and the methods of the counter-based
random source) with ``perf_counter`` spans.  A span records its name, start,
end, parent span and the pipeline step it ran in.  Spans stay in compact
arrays until the run ends; ``Instrumentation`` restores every wrapped object
on exit, so untraced calls in the same process run the original code.

File I/O is counted the same way: every swapsim module sees an ``open`` and
an ``os.fdopen`` whose raw file adds the bytes each read and write system
call moves to the ``file.bytes_read`` and ``file.bytes_written`` counters.

A span's self time is its duration minus the part of its interval covered
by its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import io
import os
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("qstate", "measure", "entanglement", "protocol", "analysis", "classical", "cli")

# Class methods traced besides module functions: every uniform the program
# draws comes through this class, so its spans measure the random layer.
CLASS_METHODS = {("measure", "RandomSource"): ("__init__", "uniform", "uniforms")}


class Tracer:
    """Span and counter store for one traced pipeline run; thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.step = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, int], int] = defaultdict(int)
        self.current_step = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, parent: int) -> int:
        with self._lock:
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.step.append(self.current_step)
            self.end.append(float("nan"))
            self.start.append(perf_counter())
        return span

    def begin(self, name_id: int) -> int:
        """Open a span under the innermost open span of this thread.

        A worker thread's spans hang under a ``<layer>.worker`` span that
        covers the thread's traced activity and sits under the main thread's
        innermost span, so the worker's time between traced calls (such as
        rendering between samples) is that worker span's self time.
        """
        stack = self._stack()
        if not stack and stack is not self._main_stack:
            owner = self._main_stack[-1] if self._main_stack else -1
            layer = self.names[self.name[owner]].split(".", 1)[0] if owner >= 0 else "thread"
            stack.append(self._open(self.name_id(f"{layer}.worker"), owner))
        span = self._open(name_id, stack[-1] if stack else -1)
        stack.append(span)
        return span

    def finish(self, span: int) -> None:
        now = perf_counter()
        self.end[span] = now
        stack = self._stack()
        stack.pop()
        if len(stack) == 1 and stack is not self._main_stack:
            self.end[stack[0]] = now  # the worker span ends with its last finished call

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[(key, self.current_step)] += amount

    def write_csv_gz(self, path) -> None:
        """Write every span as one CSV row: name, start/end in µs, parent index, step."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index,name,start_us,end_us,parent,step\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(f"{i},{self.names[self.name[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                          f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.step[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    (worker threads) are counted once, so a self time is never negative.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    result = [end[i] - start[i] for i in range(len(start))]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        run_start = run_end = None
        for s, e in intervals:
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        result[up] -= covered
    return result


def _chsh_hook(tracer: Tracer, report) -> None:
    tracer.count("analysis.records_scanned", report.total)
    if report.filter_description != "none":
        tracer.count("analysis.selected.kept", report.kept)
        tracer.count("analysis.selected.total", report.total)


def _blind_check_hook(tracer: Tracer, report) -> None:
    tracer.count("classical.blind_check.trial_models", report.trials * len(report.checks))


# Counters read from a traced call's result, keyed by span name.
RESULT_HOOKS = {
    "analysis.chsh": _chsh_hook,
    "classical.settings_blind_check": _blind_check_hook,
}


def _wrap_function(tracer: Tracer, func, span_name: str):
    name_id = tracer.name_id(span_name)
    hook = RESULT_HOOKS.get(span_name)

    if inspect.isgeneratorfunction(func):
        items_key = span_name + ".items"

        def steps(generator):
            # One span per resumption, so the time the generator spends
            # producing each item lands under whoever pulled it.
            try:
                while True:
                    span = tracer.begin(name_id)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(span)
                    tracer.count(items_key)
                    yield item
            finally:
                generator.close()

        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            return steps(func(*args, **kwargs))

        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name_id)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.finish(span)
        if hook is not None:
            hook(tracer, result)
        return result

    return wrapper


def public_functions(module):
    """(name, function) for each public function defined in ``module`` itself."""
    for name, obj in sorted(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class _CountingFile(io.FileIO):
    """A raw file that counts the bytes it moves into ``tracer``."""

    def __init__(self, tracer: Tracer, file, mode: str, closefd: bool = True, opener=None) -> None:
        super().__init__(file, mode, closefd, opener)
        self.tracer = tracer

    def _read(self, data):
        if data:
            self.tracer.count("file.bytes_read", len(data))
        return data

    def read(self, size=-1):
        return self._read(super().read(size))

    def readall(self):
        return self._read(super().readall())

    def readinto(self, buffer):
        count = super().readinto(buffer)
        if count:
            self.tracer.count("file.bytes_read", count)
        return count

    def write(self, data):
        count = super().write(data)
        if count:
            self.tracer.count("file.bytes_written", count)
        return count


def counting_open(tracer: Tracer, file, mode="r", buffering=-1, encoding=None, errors=None,
                  newline=None, closefd=True, opener=None):
    """``open`` with the same layering (raw, buffered, text), over a counting raw file."""
    raw = _CountingFile(tracer, file, mode.replace("b", "").replace("t", ""), closefd, opener)
    if buffering == 0:
        return raw
    size = buffering if buffering > 1 else io.DEFAULT_BUFFER_SIZE
    if "+" in mode:
        buffered = io.BufferedRandom(raw, size)
    elif "r" in mode:
        buffered = io.BufferedReader(raw, size)
    else:
        buffered = io.BufferedWriter(raw, size)
    if "b" in mode:
        return buffered
    text = io.TextIOWrapper(buffered, encoding, errors, newline, line_buffering=buffering == 1)
    text.mode = mode
    return text


class _CountingOs:
    """The ``os`` module as a swapsim module sees it while traced: ``fdopen`` counts bytes."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(os, name)

    def fdopen(self, fd, *args, **kwargs):
        return counting_open(self._tracer, fd, *args, **kwargs)


_ABSENT = object()


class Instrumentation:
    """Context manager that traces the swapsim modules into ``tracer``.

    Functions are re-bound in every swapsim namespace that holds them (the
    package re-exports most names, and modules import each other's
    functions by name), and restored on exit.  Each module also gets the
    byte-counting ``open`` and ``os`` until exit.
    """

    def __init__(self, tracer: Tracer, package) -> None:
        self.tracer = tracer
        self.package = package
        self._patches: list[tuple[object, str, object]] = []

    def _namespaces(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [
            module for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        ]

    def __enter__(self) -> Tracer:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, func in public_functions(module):
                wrappers[id(func)] = _wrap_function(self.tracer, func, f"{layer}.{name}")
        for namespace in self._namespaces():
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
            self._patch(namespace, "open", functools.partial(counting_open, self.tracer))
            if vars(namespace).get("os") is os:
                self._patch(namespace, "os", _CountingOs(self.tracer))
        for (layer, class_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[layer], class_name, None)
            if cls is None:
                continue
            for method in methods:
                func = vars(cls).get(method)
                if inspect.isfunction(func):
                    span_name = f"{layer}.{class_name}.{method}"
                    self._patch(cls, method, _wrap_function(self.tracer, func, span_name))
        return self.tracer

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
