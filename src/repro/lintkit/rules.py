"""The shipped rule set: repo-specific determinism and invariant checks.

Each rule is a small :class:`~repro.lintkit.framework.Rule` subclass over
the shared single-parse framework.  The catalog (rationale, examples, suppression guidance)
lives in ``docs/LINTING.md``; the docstrings here are the normative
short form.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lintkit.framework import Diagnostic, FileContext, Rule

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The trailing name of a call's target (``x.y.sha256(...)`` -> ``sha256``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _ImportTracker:
    """Per-file resolution of module and symbol aliases.

    ``modules`` maps a local dotted prefix to the canonical module it
    names (``np -> numpy``, ``npr -> numpy.random``); ``symbols`` maps a
    local bare name to its canonical dotted origin
    (``default_rng -> numpy.random.default_rng``).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.symbols: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    canonical = f"{node.module}.{alias.name}"
                    self.symbols[alias.asname or alias.name] = canonical
                    # ``from numpy import random`` binds a *module*.
                    self.modules.setdefault(alias.asname or alias.name, canonical)

    def canonical(self, node: ast.AST) -> str | None:
        """Canonical dotted origin of an expression, if statically known."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        if head in self.symbols:
            base = self.symbols[head]
            return f"{base}.{rest}" if rest else base
        return None


# ----------------------------------------------------------------------
# REP001: unseeded randomness
# ----------------------------------------------------------------------

#: Module-level sampling functions of the legacy ``numpy.random`` global
#: state -- every one bypasses the config-seeded generator threading.
_LEGACY_NP_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull",
    "zipf",
})

#: Bit-generator classes: allowed *only* with an explicit seed argument
#: (the approved pattern for fast fill streams seeded from the config
#: stream, e.g. ``np.random.SFC64(int(rng.integers(...)))``).
_BIT_GENERATORS = frozenset({"MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"})

#: Constructors that must carry an explicit seed/entropy argument.
_NEEDS_SEED_ARG = _BIT_GENERATORS | {"default_rng", "SeedSequence"}

_REP001_HINT = (
    "thread a config-seeded np.random.default_rng (or a bit generator "
    "seeded from one); see docs/LINTING.md#rep001"
)


class UnseededRandomnessRule(Rule):
    """REP001: randomness that does not flow from a seeded generator.

    Flags the legacy ``np.random.*`` module-level samplers, any use of
    the nondeterministic stdlib ``random`` module, ``np.random.RandomState``,
    and seedless constructions (``default_rng()``, ``SFC64()``,
    ``SeedSequence()``).  Seeded-generator threading --
    ``default_rng(seed)``, ``Generator(PCG64(seed))``, bit generators
    seeded from an existing stream -- is the only approved pattern in the
    determinism-critical packages (workloads/, experiments/, analysis/,
    cloud/), and there is no legitimate use anywhere else in ``src`` either,
    so the rule applies to every linted file.
    """

    code = "REP001"
    name = "unseeded-randomness"
    description = "randomness outside the seeded np.random.default_rng/Generator pattern"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        imports = _ImportTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random" and not node.level:
                yield ctx.diagnostic(
                    self.code, node,
                    "stdlib 'random' import: process-global, unseeded state",
                    _REP001_HINT,
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.canonical(node.func)
            if canonical is None:
                continue
            diag = self._check_call(ctx, node, canonical)
            if diag is not None:
                yield diag

    def _check_call(
        self, ctx: FileContext, node: ast.Call, canonical: str
    ) -> Diagnostic | None:
        if canonical.startswith("random."):
            fn = canonical.split(".", 1)[1]
            return ctx.diagnostic(
                self.code, node,
                f"stdlib random.{fn}() draws from process-global, unseeded state",
                _REP001_HINT,
            )
        if not canonical.startswith("numpy.random."):
            return None
        fn = canonical.rsplit(".", 1)[1]
        if fn in _LEGACY_NP_FNS:
            return ctx.diagnostic(
                self.code, node,
                f"np.random.{fn}() uses the unseeded legacy global state",
                _REP001_HINT,
            )
        if fn == "RandomState":
            return ctx.diagnostic(
                self.code, node,
                "np.random.RandomState is the legacy generator; "
                "it does not compose with SeedSequence spawning",
                _REP001_HINT,
            )
        if fn in _NEEDS_SEED_ARG and not node.args and not node.keywords:
            return ctx.diagnostic(
                self.code, node,
                f"np.random.{fn}() without an explicit seed is entropy-seeded "
                "(nondeterministic across runs)",
                _REP001_HINT,
            )
        return None


# ----------------------------------------------------------------------
# REP002: wall-clock reads outside the observability layer
# ----------------------------------------------------------------------

_CLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})
_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

_REP002_HINT = (
    "measure durations with repro.obs.span (record.wall_s) or justify with "
    "'# lint: allow[REP002] -- <reason>'; see docs/LINTING.md#rep002"
)


class WallClockRule(Rule):
    """REP002: wall-clock reads outside ``repro/obs``.

    A clock read in an experiment or generator body leaks nondeterminism
    into anything derived from it (cache keys, manifests, bit-identical
    trace comparisons).  Core paths must measure time through
    :func:`repro.obs.span`; the ``obs`` package itself is the one place
    allowed to touch the clock.  Scheduling deadlines (executor timeouts,
    backoff) are legitimate and carry per-line pragmas.
    """

    code = "REP002"
    name = "wall-clock-read"
    description = "direct clock reads outside repro/obs (use spans)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "obs" in ctx.parts:
            return
        imports = _ImportTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.canonical(node.func)
            if canonical is None:
                continue
            if canonical.startswith("time."):
                fn = canonical.split(".", 1)[1]
                if fn in _CLOCK_TIME_FNS:
                    yield ctx.diagnostic(
                        self.code, node,
                        f"direct wall-clock read time.{fn}() outside repro/obs",
                        _REP002_HINT,
                    )
            elif canonical.startswith("datetime."):
                tail = canonical.rsplit(".", 1)[1]
                middle = canonical.split(".")[1:-1]
                if tail in _CLOCK_DATETIME_FNS and (
                    not middle or middle[0] in ("datetime", "date")
                ):
                    yield ctx.diagnostic(
                        self.code, node,
                        f"wall-clock read {'.'.join(canonical.split('.')[-2:])}() "
                        "outside repro/obs",
                        _REP002_HINT,
                    )


# ----------------------------------------------------------------------
# REP004: silently swallowed broad exceptions
# ----------------------------------------------------------------------

_BROAD_NAMES = frozenset({"Exception", "BaseException"})

_REP004_HINT = (
    "re-raise, narrow the exception type, or count the swallow on a metrics "
    "Counter (.inc()); see docs/LINTING.md#rep004"
)


class SilentBroadExceptRule(Rule):
    """REP004: broad ``except`` that neither re-raises nor counts.

    The silent-swallow class was fixed twice already (``io.py``,
    ``parallel.py``): a bare/broad handler that just logs-and-continues
    hides corruption and fault-injection outcomes from the manifest.  A
    broad handler is acceptable only when it re-raises or increments a
    metrics counter so the swallow is observable.
    """

    code = "REP004"
    name = "silent-broad-except"
    description = "bare/broad except must re-raise or increment a metrics counter"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._observable(node):
                continue
            caught = "bare except" if node.type is None else (
                f"except {dotted_name(node.type) or 'Exception'}"
            )
            yield ctx.diagnostic(
                self.code, node,
                f"{caught} neither re-raises nor increments a metrics counter",
                _REP004_HINT,
            )

    @staticmethod
    def _is_broad(type_node: ast.AST | None) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(
                SilentBroadExceptRule._is_broad(elt) for elt in type_node.elts
            )
        name = dotted_name(type_node)
        return name is not None and name.split(".")[-1] in _BROAD_NAMES

    @staticmethod
    def _observable(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call) and call_name(node) in ("inc", "observe"):
                return True
        return False


# ----------------------------------------------------------------------
# REP005: unsorted dict/set iteration feeding order-sensitive sinks
# ----------------------------------------------------------------------

_SINK_EXACT = frozenset({"submit", "ProcessPoolExecutor", "config_hash"})
_SINK_SUBSTRINGS = ("sha256", "sha1", "md5", "blake2")

_REP005_HINT = (
    "wrap the iterable in sorted(...) so the sink sees a deterministic order, "
    "or justify with '# lint: allow[REP005] -- <reason>'; "
    "see docs/LINTING.md#rep005"
)


class UnsortedSinkIterationRule(Rule):
    """REP005: dict/set iteration order feeding hashing or worker dispatch.

    Within a function that hashes (``hashlib``-style calls,
    ``config_hash``) or dispatches to worker pools (``submit``,
    ``ProcessPoolExecutor``), a ``for`` loop or comprehension drawing
    directly from ``.values()``/``.items()``/``.keys()`` or a set ties
    the sink's behaviour to container iteration order.  Insertion order
    may be deterministic today; ``sorted(...)`` makes the invariant
    explicit and survives refactors that change insertion order.
    """

    code = "REP005"
    name = "unsorted-sink-iteration"
    description = "sort dict/set iteration that feeds hashing/dispatch sinks"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sink = self._find_sink(fn)
            if sink is None:
                continue
            for iter_node in self._iteration_sources(fn):
                problem = self._order_dependent(iter_node)
                if problem is None:
                    continue
                yield ctx.diagnostic(
                    self.code, iter_node,
                    f"unsorted {problem} iteration in '{fn.name}', which feeds "
                    f"an order-sensitive sink ({sink})",
                    _REP005_HINT,
                )

    @staticmethod
    def _find_sink(fn: ast.AST) -> str | None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name in _SINK_EXACT:
                return name
            lowered = name.lower()
            if any(sub in lowered for sub in _SINK_SUBSTRINGS):
                return name
        return None

    @staticmethod
    def _iteration_sources(fn: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    yield gen.iter


    @staticmethod
    def _order_dependent(node: ast.AST) -> str | None:
        """What unordered container this iterable reads, if any."""
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("values", "items", "keys") and isinstance(
                node.func, ast.Attribute
            ):
                return f".{name}()"
            if name == "set" and isinstance(node.func, ast.Name):
                return "set(...)"
        if isinstance(node, ast.Set):
            return "set literal"
        return None


# ----------------------------------------------------------------------
# REP006: metric/span naming convention
# ----------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_OBS_MODULES = ("repro.obs", "repro.obs.metrics", "repro.obs.tracing")
_METRIC_KINDS = frozenset({"Counter", "Gauge", "Histogram"})

_REP006_HINT = (
    "metric and span names follow 'group.name' (lowercase, dot-separated); "
    "see docs/LINTING.md#rep006"
)


class MetricNameRule(Rule):
    """REP006: metric/span literals must follow ``group.name``.

    Checks every ``Counter``/``Gauge``/``Histogram``/``span`` call whose
    handle was imported from :mod:`repro.obs` (so
    ``collections.Counter`` is never confused with the metrics handle).
    Name literals must match the lowercase dotted convention.  A second
    handle for one metric name is refused at import time by
    :class:`~repro.obs.metrics.MetricsRegistry`, not here.
    """

    code = "REP006"
    name = "metric-name-convention"
    description = "obs metric/span names: 'group.name' format"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "lintkit" in ctx.parts:
            return  # this package's own fixtures/strings are not metric names
        imports = _ImportTracker(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.canonical(node.func)
            if canonical is None:
                continue
            module, _, symbol = canonical.rpartition(".")
            if module not in _OBS_MODULES:
                continue
            if symbol not in _METRIC_KINDS and symbol != "span":
                continue
            name = _literal_first_arg(node)
            if name is None:
                continue
            if not _NAME_RE.match(name):
                yield ctx.diagnostic(
                    self.code, node,
                    f"{symbol} name '{name}' does not match the "
                    "'group.name' convention",
                    _REP006_HINT,
                )


def _literal_first_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
        node.args[0].value, str
    ):
        return node.args[0].value
    return None


# ----------------------------------------------------------------------
# REP007: known-slow idioms in hot modules
# ----------------------------------------------------------------------

_REP007_HINT = (
    "use the batched kernels (pairwise_pearson, autocorrelation_block, "
    "detect_periods_block, classify_block) or hoist the call out of the "
    "loop; a scalar reference path kept for the bit-compat tests carries "
    "'# lint: allow[REP007] -- <reason>'; see docs/LINTING.md#rep007"
)


class SlowIdiomRule(Rule):
    """REP007: per-element numpy idioms inside loops in the hot modules.

    The profile-guided speed campaign (``BENCH_perf.json``) funded batched
    kernels for exactly these shapes: Pearson correlation computed pair by
    pair, one FFT per series, and ``np.append`` in a loop (quadratic
    copying).  This rule keeps the wins from eroding: inside ``core/`` and
    ``analysis/`` a loop body or comprehension may not call
    ``pearson_correlation``/``np.corrcoef``, any ``np.fft.*`` function, or
    ``np.append``.  The scalar reference paths kept for the bit-compat
    equality tests carry per-line pragmas.
    """

    code = "REP007"
    name = "slow-idiom-in-loop"
    description = "per-series FFT/Pearson/np.append calls inside loops in core/ and analysis/"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if "core" not in ctx.parts and "analysis" not in ctx.parts:
            return
        imports = _ImportTracker(ctx.tree)
        seen: set[tuple[int, int]] = set()
        for scope in self._loop_scopes(ctx.tree):
            for node in ast.walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue
                problem = self._slow_call(node, imports)
                if problem is None:
                    continue
                seen.add(key)
                yield ctx.diagnostic(
                    self.code, node, f"{problem} inside a loop", _REP007_HINT
                )

    @staticmethod
    def _loop_scopes(tree: ast.AST) -> Iterator[ast.AST]:
        """Nodes whose code runs once per iteration of some loop.

        A comprehension's first ``iter`` expression evaluates only once, so
        it is excluded; everything else in a comprehension is per-element.
        """
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield from node.body
                yield from node.orelse
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                yield node.elt
            elif isinstance(node, ast.DictComp):
                yield node.key
                yield node.value
            if isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for position, gen in enumerate(node.generators):
                    if position > 0:
                        yield gen.iter
                    yield from gen.ifs

    @staticmethod
    def _slow_call(node: ast.Call, imports: _ImportTracker) -> str | None:
        canonical = imports.canonical(node.func) or ""
        if canonical == "numpy.corrcoef":
            return "per-pair np.corrcoef(...)"
        if canonical.startswith("numpy.fft."):
            fn = canonical.rsplit(".", 1)[1]
            return f"per-series FFT call np.fft.{fn}(...)"
        if canonical == "numpy.append":
            return "np.append(...) (quadratic: copies the array every call)"
        if call_name(node) == "pearson_correlation":
            return "per-pair pearson_correlation(...)"
        return None


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in code order."""
    return [
        UnseededRandomnessRule(),
        WallClockRule(),
        SilentBroadExceptRule(),
        UnsortedSinkIterationRule(),
        MetricNameRule(),
        SlowIdiomRule(),
    ]


#: Code -> rule class, for ``--list-rules`` and docs generation.
RULE_INDEX: dict[str, type[Rule]] = {
    rule.code: type(rule) for rule in default_rules()
}
