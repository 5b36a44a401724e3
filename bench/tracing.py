"""In-memory span tracer that wraps rbsim's public functions from outside.

The program itself carries no instrumentation.  ``install`` replaces each
target function or method with a wrapper that records one span per call:
a name, a start and end time (``time.perf_counter``) and the index of the
enclosing span.  Functions are replaced at every name that refers to them in
a loaded ``rbsim`` module, because the drivers bind them with
``from ... import`` and patching only the defining module would miss those
calls.  Methods are replaced on their class.

Spans live in compact arrays until ``save`` writes them to one ``.npz``
file; ``run.py`` derives calls and self times from that file.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every wrapped callable; the metric prefix is
# "<module>.<qualified name>".
TARGETS = (
    ("cliffords", "random_clifford"),
    ("cliffords", "compose"),
    ("cliffords", "inverse"),
    ("cliffords", "conjugate_pauli"),
    ("cliffords", "clifford_to_matrix"),
    ("cliffords", "CliffordElement.from_gates"),
    ("paulis", "PauliString.to_matrix"),
    ("paulis", "pauli_multiply"),
    ("engines", "CompiledSequence.__init__"),
    ("engines", "CompiledSequence.propagate_faults"),
    ("engines", "CompiledSequence.acceptance_samples"),
    ("engines", "CompiledSequence.survival_samples"),
    ("engines", "CompiledSequence.append_inverse"),
    ("engines", "run_sequence_exact"),
    ("channels", "fault_distribution"),
    ("channels", "apply_channel"),
    ("channels", "measurement_success_probability"),
    ("seeding", "generator_for"),
    ("seeding", "parallel_map"),
    ("fitting", "fit_decay"),
    ("rb", "run_standard_rb"),
    ("rbsv", "run_rbsv"),
    ("irbgs", "run_irbgs"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)


class Tracer:
    """Span store plus the counters observed at the same call boundaries."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct = {"cliffords.clifford_to_matrix": set(),
                         "channels.fault_distribution": set()}
        self.counters = {"engines.table_entries": 0, "rbsv.sequences": 0,
                         "rbsv.saturated": 0, "rbsv.zero_accept": 0}

    def wrap(self, span_name: str, fn, observe=None):
        name_id = self.names.index(span_name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def save(self, path: str):
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 names=np.array(json.dumps(self.names)))

    def summary(self) -> dict:
        """Counters and distinct-argument counts, for the result record."""
        out = dict(self.counters)
        for key, seen in self.distinct.items():
            out[f"{key}.distinct"] = len(seen)
        return out


# -- observers: counts read at the call boundary ------------------------------


def _observe_matrix(tracer, args, result):
    tracer.distinct["cliffords.clifford_to_matrix"].add(args[0].key())


def _observe_fault_distribution(tracer, args, result):
    # Pauli-diagonal channels are frozen dataclasses, hashed by value
    tracer.distinct["channels.fault_distribution"].add((args[0], args[1]))


def _observe_compile(tracer, args, result):
    spec = args[1]
    tracer.counters["engines.table_entries"] += 4 ** spec.n * len(spec.elements)


def _observe_append_inverse(tracer, args, result):
    tracer.counters["engines.table_entries"] += 4 ** args[0].n


def _observe_rbsv(tracer, args, result):
    p_acc = result.per_sequence_p_acc
    tracer.counters["rbsv.sequences"] += sum(len(a) for a in p_acc)
    tracer.counters["rbsv.saturated"] += int(np.sum(result.n_saturated))
    tracer.counters["rbsv.zero_accept"] += sum(int(np.count_nonzero(a == 0.0)) for a in p_acc)


OBSERVERS = {
    "cliffords.clifford_to_matrix": _observe_matrix,
    "channels.fault_distribution": _observe_fault_distribution,
    "engines.CompiledSequence.__init__": _observe_compile,
    "engines.CompiledSequence.append_inverse": _observe_append_inverse,
    "rbsv.run_rbsv": _observe_rbsv,
}


def install(tracer: Tracer):
    """Wrap every target at each name that refers to it in a loaded rbsim module."""
    loaded = [m for key, m in sys.modules.items()
              if key == "rbsim" or key.startswith("rbsim.")]
    for module_name, qualname in TARGETS:
        span_name = f"{module_name}.{qualname}"
        module = sys.modules[f"rbsim.{module_name}"]
        observe = OBSERVERS.get(span_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span_name, raw.__func__, observe)))
            else:
                setattr(cls, attr, tracer.wrap(span_name, raw, observe))
            continue
        original = getattr(module, qualname)
        wrapped = tracer.wrap(span_name, original, observe)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
