"""Span tracing of the library's public functions from outside the library.

``Tracer.install`` rebinds every module-level name in ``spherezeta.*`` whose
value is one of the traced function objects, so calls through names bound
by ``from .x import f`` are caught as well.  The ``kato.eig`` layer is
``eigh``/``eigvalsh`` as called through ``spherezeta.kato``'s own ``np``.
Spans are kept in memory as (name, start, end, parent, task) tuples and
written out at the end; self time is a span's duration minus the part of
it covered by its children.
``restore`` puts every original binding back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# layer -> traced public functions, in the order metrics are reported
TRACED = {
    "cli": ("main",),
    "truncation": ("shifted_power_sum",),
    "spectrum": ("spectrum_slice", "sphere_spec"),
    "specfun": ("gegenbauer_ratio_series", "hurwitz_via_binomial",
                "riemann_zeta", "hurwitz_zeta"),
    "zeta": ("regularized_zeta", "spectral_zeta", "closed_form_Z",
             "hurwitz_style_Z", "compare_zeta_pair"),
    "kernels": ("heat_kernel", "zeta_kernel", "heat_trace", "mellin_zeta_kernel"),
    "majorize": ("partial_sum_domination", "weak_majorizes"),
    "kato": ("kato_pointwise_check", "generator_pairing_check",
             "positivity_domination_check", "trace_domination_check",
             "duhamel_residual", "commute_residual", "semigroup",
             "symmetric_operator"),
}

KATO_CHECK_FUNCS = {
    "pointwise": "kato_pointwise_check", "pairing": "generator_pairing_check",
    "positivity": "positivity_domination_check", "trace": "trace_domination_check",
    "duhamel": "duhamel_residual", "commute": "commute_residual",
}

EIG_SPAN = "kato.eig"


def _terms(args, kwargs, result):
    return result.terms_used


def _length(args, kwargs, result):
    return len(result)


def _first_arg_length(args, kwargs, result):
    return len(args[0]) if args else len(kwargs.get("x", kwargs.get("a", ())))


def _pair_kmax(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["kmax"]


def _eig_m3(args, kwargs, result):
    m = len(args[0] if args else kwargs["a"])
    return m ** 3


# span name -> (work-count suffix, function computing it from a call)
WORK = {
    "truncation.shifted_power_sum": ("terms", _terms),
    "specfun.hurwitz_via_binomial": ("terms", _terms),
    "specfun.riemann_zeta": ("terms", _terms),
    "specfun.hurwitz_zeta": ("terms", _terms),
    "specfun.gegenbauer_ratio_series": ("elements", _length),
    "spectrum.spectrum_slice": ("entries", _length),
    "zeta.regularized_zeta": ("terms", _terms),
    "zeta.spectral_zeta": ("terms", _terms),
    "zeta.hurwitz_style_Z": ("terms", _terms),
    "zeta.compare_zeta_pair": ("elements", _pair_kmax),
    "kernels.heat_kernel": ("terms", _terms),
    "kernels.zeta_kernel": ("terms", _terms),
    "kernels.heat_trace": ("terms", _terms),
    "kernels.mellin_zeta_kernel": ("nodes", _terms),
    "majorize.partial_sum_domination": ("elements", _first_arg_length),
    "majorize.weak_majorizes": ("elements", _first_arg_length),
    EIG_SPAN: ("m3_computed", _eig_m3),
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns] + [EIG_SPAN]


class Tracer:
    """Collects spans of traced calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.work: dict[str, float] = defaultdict(float)
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        count = WORK.get(name, (None, None))[1]
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                tracer.work[name] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name):
        """Context manager recording one span, e.g. a whole task."""
        return _Span(self, name)

    def install(self) -> None:
        import spherezeta.cli  # noqa: F401  (loads every layer module)

        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for layer, fns in TRACED.items():
            module = sys.modules[f"spherezeta.{layer}"]
            for fn_name in fns:
                # a function a later version drops simply reports zero calls
                if hasattr(module, fn_name):
                    targets[id(getattr(module, fn_name))] = f"{layer}.{fn_name}"
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spherezeta" or mod_name.startswith("spherezeta.")):
                continue
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        # kato reaches LAPACK through its own `np` binding; a proxy there
        # counts only kato's eigendecompositions, not numpy-internal ones
        kato = sys.modules["spherezeta.kato"]
        real_np = kato.np
        wrapped = {attr: self._wrap(EIG_SPAN, getattr(real_np.linalg, attr))
                   for attr in ("eigh", "eigvalsh")}
        self._patched.append((kato, "np", real_np))
        kato.np = _Proxy(real_np, linalg=_Proxy(real_np.linalg, **wrapped))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        assert_no_wrappers()



class _Proxy:
    """Module stand-in: the given attributes replaced, the rest delegated."""

    perfbench_span = "proxy"

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.idx] = (self.name, self.start, time.perf_counter(), self.parent, tr.task)
        return False


def write_spans(path: str, spans) -> None:
    """Spans as JSON lines: [name, start, end, parent, task]."""
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(sp) + "\n")


def wrapped_bindings() -> list[str]:
    """Names in spherezeta.* still bound to a tracer wrapper or proxy."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "spherezeta" or mod_name.startswith("spherezeta.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, _Proxy) or getattr(value, "perfbench_span", None) is not None:
                found.append(f"{mod_name}.{attr}")
    return found


def assert_no_wrappers() -> None:
    left = wrapped_bindings()
    if left:
        raise RuntimeError(f"tracer wrappers still bound: {left}")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is the span's duration minus the union of its children's
    intervals, each clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for idx, (name, start, end, parent, task) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {k: (v[0], v[1]) for k, v in out.items()}
