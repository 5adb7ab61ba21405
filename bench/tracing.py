"""Spans recorded around ptpoint's public functions, from outside the package.

The traced run replaces functions at their module attributes; nothing in the
package is edited.  Calls inside the package go through those attributes
(cli calls spectra.*, spectra calls its imported two_point_kernel,
finitediff.oracle_discrete_spectrum calls its own discretize), so their spans
are caught too.  Classes are never wrapped: isinstance dispatch needs them.

Spans stay in memory (parallel lists) and are written out once, when the run
ends.  A span's self time is its duration minus that of its child spans;
calls are single threaded, so children never overlap.
"""

import time

import numpy as np

# (module name, attribute, span name); the span name is the layer that owns the work
TARGETS = (
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "model_from_dict", "boundary.model_build"),
    ("spectra", "discrete_spectrum_origin_connected", "spectra.origin"),
    ("spectra", "discrete_spectrum_separated", "spectra.origin"),
    ("spectra", "two_point_spectrum", "spectra.two_point_spectrum"),
    ("spectra", "default_contour", "spectra.default_contour"),
    ("spectra", "two_point_kernel", "states.certificate"),
    ("finitediff", "discretize", "finitediff.discretize"),
    ("finitediff", "oracle_discrete_spectrum", "finitediff.oracle"),
    ("finitediff", "oracle_resolvent_residual", "finitediff.residual"),
    ("states", "apply_resolvent", "states.resolvent"),
)

# a number recorded with a span, taken from the call's result
_RESULT_SIZE = {
    "spectra.two_point_spectrum": lambda rep: rep.total_multiplicity,
    "finitediff.discretize": lambda M: M.shape[0],
    "finitediff.oracle": len,
}


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self, modules):
        self.modules = modules
        # span and exception names are interned: labels[0] == "" means no error
        self.labels = [""]
        self._label_id = {"": 0}
        self.name, self.parent, self.start, self.end = [], [], [], []
        self.size, self.error = [], []
        self._stack = []
        self._saved = []

    def _intern(self, label):
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def open(self, name):
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0)
        self.error.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name, fn):
        size_of = _RESULT_SIZE.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.error[idx] = self._intern(type(exc).__name__)
                raise
            finally:
                self.close(idx)
            if size_of is not None:
                self.size[idx] = size_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod_name, attr, span in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def arrays(self):
        """Spans as arrays: name, parent index, start, duration and self time (ns), size, error.

        name and error index into labels.
        """
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "labels": np.array(self.labels),
            "name": np.array(self.name, dtype=np.int32),
            "parent": parent,
            "start_ns": np.array(self.start, dtype=np.int64),
            "dur_ns": dur,
            "self_ns": dur - child,
            "size": np.array(self.size, dtype=np.int64),
            "error": np.array(self.error, dtype=np.int32),
        }

    def write(self, path):
        np.savez_compressed(path, **self.arrays())
