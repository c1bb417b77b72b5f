"""Outside-in span tracer for the dyadicbp benchmark.

The tracer never edits the package. It replaces function bindings from
outside: every ``dyadicbp`` module that imported a layer entry point
(``from .network import apply_w_array`` in ``dynamics``, ``reference``
and ``network`` itself, say) holds its own binding, and each one is
swapped for a wrapper that records a span. ``LossSpec.gradient`` and
``LossSpec.value`` are methods, so they are wrapped on the class.

A span is (name, start, end, parent). Spans are kept in flat arrays in
memory and written out once, at the end of a run. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np

# Layer entry points: (span name, module that defines it, attribute).
# The span name's prefix is the layer, i.e. the dyadicbp module.
ENTRY_POINTS = (
    ("network.apply_w_array", "dyadicbp.network", "apply_w_array"),
    ("network.apply_wt_array", "dyadicbp.network", "apply_wt_array"),
    ("network.sigma_array", "dyadicbp.network", "sigma_array"),
    ("network.sigma_prime_array", "dyadicbp.network", "sigma_prime_array"),
    ("network.forward_layers", "dyadicbp.network", "forward_layers"),
    ("network.beta_array", "dyadicbp.network", "beta_array"),
    ("network.random_network", "dyadicbp.network", "random_network"),
    ("losses.gradient", "dyadicbp.losses", "LossSpec.gradient"),
    ("losses.value", "dyadicbp.losses", "LossSpec.value"),
    ("dynamics.relax_batch", "dyadicbp.dynamics", "relax_batch"),
    ("dynamics.relax_dyadic", "dyadicbp.dynamics", "relax_dyadic"),
    ("dynamics.relax_mean_stress", "dyadicbp.dynamics", "relax_mean_stress"),
    ("dynamics.relax_split", "dyadicbp.dynamics", "relax_split"),
    ("dynamics.relax_twoL", "dyadicbp.dynamics", "relax_twoL"),
    ("reference.backprop_batch", "dyadicbp.reference", "backprop_batch"),
    ("reference.classical_backprop", "dyadicbp.reference", "classical_backprop"),
    ("fidelity.compare", "dyadicbp.fidelity", "compare"),
    ("datasets.generate_dataset", "dyadicbp.datasets", "generate_dataset"),
    ("training.train", "dyadicbp.training", "train"),
    ("training.sweep_eta", "dyadicbp.training", "sweep_eta"),
    ("training.check_gradients", "dyadicbp.training", "check_gradients"),
)

OnCall = Callable[[tuple, object], None]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Records nested spans around wrapped functions.

    ``install`` swaps bindings for wrappers and ``uninstall`` restores
    the originals, so one process can alternate traced and untraced
    calls of the same program.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, on_call: Optional[OnCall] = None):
        """Return ``fn`` wrapped so each call records one span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def install(
        self,
        points: Iterable[tuple[str, str, str]],
        on_call: Optional[dict[str, OnCall]] = None,
    ) -> None:
        """Wrap each entry point in every ``dyadicbp`` namespace bound to it."""
        on_call = on_call or {}
        for name, module, attr in points:
            owner, leaf = _resolve(module, attr)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original, on_call.get(name))
            if owner is not sys.modules[module]:  # a method, patched on its class
                self._patch(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "dyadicbp" and getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span named ``name``, in call order."""
        if name not in self._ids:
            return np.zeros(0)
        sel = np.array(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.array(self.end) - np.array(self.start))[sel]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        n = len(self)
        if n == 0:
            return {}
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i in range(k)
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
