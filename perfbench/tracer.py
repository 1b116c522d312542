"""Per-layer tracing of dendrosim from outside the package.

``Tracer`` wraps each traced function object once and rebinds that one
wrapper at every ``dendrosim`` module (or class) that holds the original
under some name.  Modules that imported a function by name
(``from .solvers import helmholtz_solve``) and modules that reach it
through another module (``bdf1.step`` from ``bdf2.bootstrap``) then all
call the same wrapper, so each call is counted once.

Each wrapper keeps, per traced name, the number of calls, the summed
span and the summed self time (span minus the spans of traced callees).
Spans are folded into these sums as they close; no per-call record is
kept, so memory stays flat however long the run.

``LevelClock`` only stamps ``time.perf_counter()`` after every ledger
row, which is written once per time level; the untraced end-to-end
timing uses it alone.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (traced name, module, attribute); a dotted attribute names a class method.
# solvers.dct covers the dctn/idctn calls made by the solvers module only.
TRACED = (
    ("experiments.run_single", "dendrosim.experiments", "run_single"),
    ("config.load_config", "dendrosim.config", "load_config"),
    ("bdf1.init_state", "dendrosim.bdf1", "init_state"),
    ("bdf1.step", "dendrosim.bdf1", "step"),
    ("bdf1.energy_identity_residual", "dendrosim.bdf1", "energy_identity_residual"),
    ("bdf2.bootstrap", "dendrosim.bdf2", "bootstrap"),
    ("bdf2.step2", "dendrosim.bdf2", "step2"),
    ("bdf2.energy_identity_residual2", "dendrosim.bdf2", "energy_identity_residual2"),
    ("model.g_residual", "dendrosim.model", "g_residual"),
    ("model.e1_energy", "dendrosim.model", "e1_energy"),
    ("model.original_energy", "dendrosim.model", "original_energy"),
    ("model.h_prime", "dendrosim.model", "h_prime"),
    ("grid.laplacian", "dendrosim.grid", "laplacian"),
    ("grid.grad_inner", "dendrosim.grid", "grad_inner"),
    ("grid.inner", "dendrosim.grid", "inner"),
    ("solvers.solve_shifted", "dendrosim.solvers", "solve_shifted"),
    ("solvers.helmholtz_solve", "dendrosim.solvers", "helmholtz_solve"),
    ("solvers.dct", "dendrosim.solvers", "dctn"),
    ("solvers.dct", "dendrosim.solvers", "idctn"),
    ("diagnostics.make_record", "dendrosim.diagnostics", "make_record"),
    ("diagnostics.LedgerWriter.append", "dendrosim.diagnostics", "LedgerWriter.append"),
    ("snapshots.write_snapshot", "dendrosim.snapshots", "write_snapshot"),
    ("snapshots.read_snapshot", "dendrosim.snapshots", "read_snapshot"),
)
TRACED_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


def _path_bytes(args, kwargs, result) -> int:
    """Size of the file named by the call's ``path`` argument (its last one)."""
    return os.path.getsize(kwargs.get("path", args[-1] if args else None))


# counters kept at the traced boundaries: name -> (counter, bytes of one call)
COUNTERS = {
    "snapshots.write_snapshot": ("snapshots.bytes_written", _path_bytes),
    "snapshots.read_snapshot": ("snapshots.bytes_read", _path_bytes),
    # input plus output array, computed from sizes rather than measured traffic
    "solvers.dct": ("solvers.dct.computed_bytes", lambda args, kwargs, result:
                    args[0].nbytes + result.nbytes),
}


def _owner_and_attr(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _patch(patches: list, owner, attr: str, value) -> None:
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _unpatch(patches: list) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


class Tracer:
    """Call counts, spans and self times of the functions in ``TRACED``."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED_NAMES, 0)
        self.span_s = dict.fromkeys(TRACED_NAMES, 0.0)
        self.self_s = dict.fromkeys(TRACED_NAMES, 0.0)
        self.counts: dict[str, float] = {c: 0.0 for c, _ in COUNTERS.values()}
        self._child_s: list[float] = []  # traced-callee time of each open span
        self._patches: list = []

    def _wrap(self, name: str, fn):
        calls, span_s, self_s, child_s = self.calls, self.span_s, self.self_s, self._child_s
        counter, size = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child_s.pop()
                calls[name] += 1
                span_s[name] += dt
                self_s[name] += dt - inner
                if child_s:
                    child_s[-1] += dt
            if counter is not None:
                self.counts[counter] += size(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every traced function once; rebind it wherever it is held."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dendrosim" or n.startswith("dendrosim."))]
        for name, module_name, attr in TRACED:
            owner, leaf = _owner_and_attr(module_name, attr)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        _patch(self._patches, holder, key, wrapper)

    def uninstall(self) -> None:
        _unpatch(self._patches)


class LevelClock:
    """perf_counter stamps taken right after each ledger row is written."""

    def __init__(self):
        self.stamps: list[float] = []
        self._patches: list = []
        self.on_level = None  # optional callback, run after each stamp

    def install(self) -> None:
        writer_cls = sys.modules["dendrosim.diagnostics"].LedgerWriter
        append = writer_cls.__dict__["append"]
        stamps, clock = self.stamps, time.perf_counter

        def stamped_append(writer, rec):
            append(writer, rec)
            stamps.append(clock())
            if self.on_level is not None:
                self.on_level()

        _patch(self._patches, writer_cls, "append", stamped_append)

    def uninstall(self) -> None:
        _unpatch(self._patches)
