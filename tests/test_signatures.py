"""The return kernel carries its domain, so no call takes both.

A reflected process is the process killed on D joined with a return kernel
mu into D, and ``mu.domain`` is that D. A public callable of the package
that took a ``domain`` next to a ``mu`` could be handed two that disagree.
"""

import importlib
import inspect
import pkgutil

import reflected_stable


def _public_signatures():
    """(qualified name, parameter names) of each public function, class
    constructor and public method defined in the package."""
    out = []
    for info in pkgutil.iter_modules(reflected_stable.__path__):
        module = importlib.import_module("reflected_stable." + info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append(("%s.%s" % (info.name, name), inspect.signature(obj).parameters))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__"
                                                       or not attr.startswith("_")):
                        out.append(("%s.%s.%s" % (info.name, name, attr),
                                    inspect.signature(member).parameters))
    return out


def test_no_public_callable_takes_both_domain_and_mu():
    signatures = _public_signatures()
    takes_mu = {name for name, params in signatures if "mu" in params}
    # the guard sees the Monte Carlo entry points that read D off the kernel
    assert {"pathsim.simulate_ensemble", "pathsim.simulate_ensemble_blocks",
            "pathsim.simulate_ladder", "pathsim.reflection_chain",
            "pathsim.renewal_occupation"} <= takes_mu
    both = sorted(name for name, params in signatures if {"domain", "mu"} <= set(params))
    assert both == []
