"""Per-layer wall-clock ledger, measured from outside the program.

A traced phase runs under :mod:`cProfile`; every profiled function's self
time (``tottime``) is folded into the layer that owns its source module.
Layers are named after ``src/repro`` modules.  Functions outside
``src/repro`` -- built-ins, the standard library -- are charged to the
layers of their callers, in proportion to the self time each caller's
calls cost, so ``list.append`` inside the rule engine counts as rule
engine time.  Self time excludes callees by construction, which is the
layer-stack rule: a nested call is never counted twice.  Kernel-resumed
process bodies are generator frames, so their time lands in the module
that defines the generator, not in the kernel that resumed it.

This is deliberately not ``repro.simkernel.telemetry.KernelProfiler``:
that profiler attributes each event to its callback's qualname, so every
process step shows up as the kernel callback that resumed it
(``Resource._complete`` took 89.7% of a 5000-device profile) instead of
the layer whose code ran.
"""

import cProfile
import os
import pstats

#: Every layer the ledger reports, in report order.
LAYERS = (
    "rules", "snmp", "simkernel", "network", "agents",
    "core.collector", "core.classifier", "core.storage", "core.processor",
    "core.federation", "core.interface", "core.other",
)
#: Layers whose set-up self time is reported too.
SETUP_LAYERS = ("snmp", "network", "simkernel")

_PACKAGE_LAYERS = {"rules", "snmp", "simkernel", "network", "agents"}
_CORE_LAYERS = {layer.split(".", 1)[1] for layer in LAYERS
                if layer.startswith("core.") and layer != "core.other"}


def layer_of(filename, package_dir):
    """The layer owning ``filename``, or None outside ``package_dir``."""
    if not filename.startswith(package_dir + os.sep):
        return None
    parts = filename[len(package_dir) + 1:].split(os.sep)
    if parts[0] in _PACKAGE_LAYERS:
        return parts[0]
    if parts[0] == "core" and len(parts) == 2:
        module = os.path.splitext(parts[1])[0]
        return "core." + module if module in _CORE_LAYERS else "core.other"
    # Every other module: entry points, evaluation helpers, package
    # __init__ files.
    return "core.other"


class Ledger:
    """Self time per layer plus exact call counts of one traced phase."""

    def __init__(self, stats, package_dir):
        self._stats = stats
        self._package_dir = package_dir
        self._shares = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        for function, (_, _, tottime, _, _) in stats.items():
            for layer, share in self._layers_of(function, ()).items():
                self.self_s[layer] += tottime * share

    def _layers_of(self, function, path):
        """``{layer: share}`` of ``function``'s self time (shares sum to 1,
        or to 0 when no caller chain reaches ``src/repro``)."""
        cached = self._shares.get(function)
        if cached is not None:
            return cached
        layer = layer_of(function[0], self._package_dir)
        if layer is not None:
            shares = {layer: 1.0}
        else:
            shares = {}
            callers = self._stats[function][4]
            weights = {caller: entry[2] for caller, entry in callers.items()
                       if caller not in path and caller in self._stats}
            total = sum(weights.values())
            if total <= 0.0:
                # Untimed calls: split by call count instead.
                weights = {caller: callers[caller][1] for caller in weights}
                total = sum(weights.values())
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                for name, share in self._layers_of(
                        caller, path + (function,)).items():
                    shares[name] = shares.get(name, 0.0) + \
                        share * weight / total
        if not path:
            self._shares[function] = shares
        return shares

    def calls(self, filename_suffix, function_name):
        """Exact call count of one ``src/repro`` function."""
        suffix = os.sep + filename_suffix.replace("/", os.sep)
        return sum(
            entry[1] for (filename, _, name), entry in self._stats.items()
            if name == function_name and filename.endswith(suffix))


def profile(callable_, package_dir):
    """Run ``callable_()`` under cProfile; returns ``(result, Ledger)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = callable_()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    return result, Ledger(stats, package_dir)
