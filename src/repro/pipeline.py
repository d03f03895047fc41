"""The end-to-end ASDF compilation pipeline (paper Fig. 2).

``compile_kernel`` drives: Python AST -> Qwerty AST -> expansion ->
type checking -> AST canonicalization -> Qwerty IR -> (lambda lifting,
canonicalization, specialization, inlining) -> QCircuit IR -> flat
circuit -> peephole -> Selinger decomposition.  Each stage's artifact
is kept on the :class:`CompileResult` for inspection, testing, and the
backends.

The optimization stages are scheduled through the unified pass
infrastructure (:mod:`repro.ir.passmanager`): a :class:`CompileOptions`
names one textual pipeline spec per layer, with presets matching the
paper's Table 1 ablations (``"default"``, ``"no-opt"``,
``"no-peephole"``, ``"no-relaxed-peephole"``, ``"no-selinger"``).  A
per-process compile cache keyed on (kernel fingerprint, dims, pipeline
specs) lets repeated ``simulate_kernel``/benchmark calls skip
recompilation.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import PassPipelineError, QwertyError, QwertyTypeError
from repro.frontend.canon import canonicalize_kernel
from repro.frontend.expand import expand_kernel
from repro.frontend.lower_ast import AstLowering
from repro.frontend.typecheck import TypeChecker
from repro.ir.module import ModuleOp
from repro.ir.passmanager import PassStatistics
from repro.ir.verifier import verify_module
from repro.lower import flatten_to_circuit, lower_module
from repro.parameters import Parameter, ParamExpr
from repro.qcircuit import (
    CIRCUIT_DECOMPOSE_SPEC,
    CIRCUIT_FUSION_SPEC,
    CIRCUIT_OPT_SPEC,
    Circuit,
    copy_circuit,
    make_circuit_pass_manager,
)
from repro.qcircuit.circuit import bind_circuit, circuit_parameters
from repro.qwerty_ir import (
    QWERTY_NOOPT_SPEC,
    QWERTY_OPT_SPEC,
    make_qwerty_pass_manager,
)


@dataclass(frozen=True)
class CompileOptions:
    """How to drive one compilation: a pipeline spec per layer.

    ``qwerty_spec`` runs on Qwerty IR modules; ``optimize_spec``
    produces the optimized flat circuit; ``decompose_spec`` produces
    the hardware-ready decomposed circuit.  ``to_circuit=False`` stops
    after QCircuit IR (required when ``qwerty_spec`` does not inline —
    function values then survive to QIR as callables).  ``verify``
    checks IR invariants before and after the Qwerty pipeline;
    ``verify_each`` additionally re-verifies after every changed pass.
    ``collect_statistics`` fills ``CompileResult.statistics`` with a
    per-pass/per-stage breakdown.  ``fusion_spec`` runs on a *copy* of
    the optimized circuit to produce ``CompileResult.execution_circuit``
    — the gate-fused form the simulation entry points execute (see
    docs/performance.md); exporters and resource estimation keep
    consuming the unfused circuits, and ``fusion_spec=""`` disables
    fusion.  ``sim_backend`` names the simulation backend
    (:mod:`repro.sim.backend`) that ``simulate_kernel`` and the
    evaluation harness use to execute the compiled circuit,
    ``sim_kernel`` selects the apply-matrix kernel
    (:mod:`repro.sim.kernels`; ``None`` keeps the process default),
    ``noise_model`` (a :class:`repro.noise.NoiseModel`) makes those
    executions noisy, and ``parallel_workers`` shards the run's shot
    chunks across a process pool (:mod:`repro.exec`; ``None`` means
    one worker, ``0`` one worker per core); none of the four affects
    compilation itself, and all four are excluded from the
    compile-cache key.

    Build options from a named preset (:meth:`preset`, the
    :data:`PRESETS` table) or by setting the spec fields directly.
    """

    qwerty_spec: str = QWERTY_OPT_SPEC
    optimize_spec: str = CIRCUIT_OPT_SPEC
    decompose_spec: str = CIRCUIT_DECOMPOSE_SPEC
    fusion_spec: str = CIRCUIT_FUSION_SPEC
    to_circuit: bool = True
    verify: bool = True
    verify_each: bool = False
    collect_statistics: bool = False
    sim_backend: Optional[str] = None
    sim_kernel: Optional[str] = None
    noise_model: Optional[object] = None
    parallel_workers: Optional[int] = None

    @classmethod
    def preset(cls, name: str, **overrides) -> "CompileOptions":
        """A named pipeline preset, optionally overridden per field."""
        base = PRESETS.get(name)
        if base is None:
            known = ", ".join(sorted(PRESETS))
            raise PassPipelineError(
                f"unknown pipeline preset {name!r} (known presets: {known})"
            )
        return dataclasses.replace(base, **overrides)


#: Presets matching the paper's configurations: "default" is the full
#: pipeline, "no-opt" is Table 1's "Asdf (No Opt)", and the remaining
#: three are the §6.5/§8.3 ablations.
PRESETS: dict[str, CompileOptions] = {
    "default": CompileOptions(),
    "no-opt": CompileOptions(qwerty_spec=QWERTY_NOOPT_SPEC, to_circuit=False),
    "no-peephole": CompileOptions(optimize_spec=""),
    "no-relaxed-peephole": CompileOptions(
        optimize_spec="peephole{relaxed=false}"
    ),
    "no-selinger": CompileOptions(
        decompose_spec=(
            "decompose-multi-controlled{scheme=naive},"
            "peephole{relaxed=false}"
        )
    ),
    "no-fusion": CompileOptions(fusion_spec=""),
}


@dataclass
class CompileResult:
    """Artifacts of one kernel compilation."""

    name: str
    qwerty_module: ModuleOp
    qcircuit_module: ModuleOp
    circuit: Optional[Circuit] = None
    optimized_circuit: Optional[Circuit] = None
    decomposed_circuit: Optional[Circuit] = None
    #: The gate-fused execution form of ``optimized_circuit`` (equal to
    #: it when ``options.fusion_spec`` is empty).  Simulation entry
    #: points execute this; exporters never see it.
    execution_circuit: Optional[Circuit] = None
    dims: dict = field(default_factory=dict)
    options: CompileOptions = field(default_factory=CompileOptions)
    #: Per-pass instrumentation, when compiled with collect_statistics.
    statistics: Optional[PassStatistics] = None
    #: Where the *most recent* cache lookup found this artifact:
    #: "compiled" (built fresh this call), "memory" (in-process LRU
    #: hit), or "disk" (persistent-cache hit, unpickled).  Recorded in
    #: ``RunInfo.compile_cache`` by ``simulate_kernel_with_info``.
    #: Mutated in place on cache hits — cached results are shared.
    provenance: str = "compiled"

    def qasm3(self, source_comments: bool = False) -> str:
        """OpenQASM 3 text; ``source_comments=True`` adds ``// line N``
        provenance comments from the gates' source spans."""
        from repro.backends.qasm3 import emit_qasm3

        if self.optimized_circuit is None:
            raise QwertyTypeError("OpenQASM 3 export requires inlining")
        return emit_qasm3(
            self.optimized_circuit,
            name=self.name,
            source_comments=source_comments,
        )

    def qir(self, profile: str = "unrestricted") -> str:
        from repro.backends.qir import emit_qir

        return emit_qir(self, profile=profile)

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """The distinct unbound symbolic parameters in the compiled
        circuits, sorted by name (empty for fully-concrete kernels)."""
        found: dict[str, Parameter] = {}
        for circuit in (
            self.circuit,
            self.optimized_circuit,
            self.decomposed_circuit,
            self.execution_circuit,
        ):
            if circuit is not None:
                for param in circuit_parameters(circuit):
                    found.setdefault(param.name, param)
        return tuple(found[name] for name in sorted(found))

    def bind(self, values=None, *, partial: bool = False, **kwargs):
        """A new :class:`CompileResult` with parameter values substituted
        into every circuit — **without recompiling** and without touching
        the compile cache (docs/variational.md).

        ``values`` maps :class:`~repro.parameters.Parameter` objects or
        names to numbers in the units the parameter was written in: a
        DSL phase (``'1'@theta``) is **degrees** — the compiler bakes
        the degree→radian conversion into the gate's affine param
        expression — while a parameter used directly in a circuit-level
        ansatz (:mod:`repro.variational`) is **radians**.  Keyword
        arguments are merged in by name.  Every parameter must be
        covered unless ``partial=True``.
        """
        env: dict[str, float] = {}
        for key, value in {**(values or {}), **kwargs}.items():
            name = key.name if isinstance(key, Parameter) else str(key)
            env[name] = value
        known = {p.name for p in self.parameters}
        unknown = sorted(set(env) - known)
        if unknown:
            raise QwertyTypeError(
                f"unknown parameter(s) {', '.join(unknown)}; this kernel's "
                f"parameters are: {', '.join(sorted(known)) or '(none)'}"
            )

        def bound(circuit: Optional[Circuit]) -> Optional[Circuit]:
            if circuit is None:
                return None
            return bind_circuit(circuit, env, partial=partial)

        return dataclasses.replace(
            self,
            circuit=bound(self.circuit),
            optimized_circuit=bound(self.optimized_circuit),
            decomposed_circuit=bound(self.decomposed_circuit),
            execution_circuit=bound(self.execution_circuit),
        )


def _resolve_angle_captures(expanded, kernel, dims: dict) -> None:
    """Resolve named angles in phase positions, in place.

    The parser turns a name in phase position (``'1'@theta``) into a
    placeholder :class:`ParamExpr` carrying the identifier.  After
    expansion, each placeholder resolves against the kernel's captures:
    a numeric capture folds to a concrete float, a
    :class:`~repro.parameters.Parameter` capture substitutes the symbol
    itself (staying symbolic through the whole pipeline until
    ``CompileResult.bind``), and a bound dimension variable folds to
    its value.  Anything else is a type error.
    """

    def resolve(phase: ParamExpr):
        env: dict[str, object] = {}
        for param in phase.parameters:
            name = param.name
            if name in kernel.captures:
                value = kernel.captures[name]
                if isinstance(value, (Parameter, ParamExpr)):
                    env[name] = value
                elif isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    env[name] = float(value)
                else:
                    raise QwertyTypeError(
                        f"capture '{name}' is used as an angle but is a "
                        f"{type(value).__name__}; angle captures must be "
                        "numbers or repro.Parameter symbols"
                    )
            elif name in dims:
                env[name] = float(dims[name])
            else:
                raise QwertyTypeError(
                    f"unknown angle '{name}' in @{kernel.name}; phases "
                    "may reference only angle captures or bound "
                    "dimension variables"
                )
        return phase.subs(env)

    def walk(obj) -> None:
        if isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
            return
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, ParamExpr):
                try:
                    setattr(obj, f.name, resolve(value))
                except QwertyError as error:
                    raise error.attach_span(getattr(obj, "span", None))
            else:
                walk(value)

    walk(expanded.body)


def _build_qwerty_module(kernel) -> tuple[ModuleOp, dict]:
    """Frontend stages: parse/expand/typecheck/canonicalize/lower."""
    dims = kernel.infer_dims()
    expanded = expand_kernel(kernel.kernel_ast, dims)
    _resolve_angle_captures(expanded, kernel, dims)

    capture_types = kernel.capture_types(dims)
    runtime_params = [
        p for p in expanded.params if p.name not in kernel.captures
    ]
    if runtime_params:
        raise QwertyTypeError(
            f"@{kernel.name} has runtime parameters "
            f"({', '.join(p.name for p in runtime_params)}); only fully "
            f"captured kernels can be compiled standalone"
        )

    checker = TypeChecker(capture_types)
    checker.check_kernel(expanded)
    canonical = canonicalize_kernel(expanded)
    checker = TypeChecker(capture_types)
    return_type = checker.check_kernel(canonical)

    module = ModuleOp()
    networks = {}
    from repro.frontend.decorators import ClassicalFunction

    for name, capture in kernel.captures.items():
        if isinstance(capture, ClassicalFunction):
            merged = {**capture.infer_dims(), **dims}
            networks[name] = (
                lambda cap=capture, d=merged: cap.network(d)
            )
    lowering = AstLowering(module, networks)
    lowering.lower_kernel(canonical, return_type)
    module.entry_point = canonical.name
    return module, dims


# ----------------------------------------------------------------------
# The two-layer compile cache: per-process LRU over a persistent
# on-disk store (repro.exec.diskcache).
# ----------------------------------------------------------------------
import os
from collections import OrderedDict

from repro.exec import diskcache as _diskcache
from repro.exec import faults as _faults
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: In-memory LRU lookups, mirrored into the metrics registry so the
#: service's ``op: "metrics"`` exposition reconciles exactly with
#: :func:`compile_cache_info` (the disk layer mirrors its own in
#: :mod:`repro.exec.diskcache`).
_CACHE_LOOKUPS = _metrics.counter(
    "repro_cache_lookups_total",
    "Compile-cache lookups by layer and outcome",
    labels=("layer", "outcome"),
)
_CACHE_EVICTIONS = _metrics.counter(
    "repro_cache_evictions_total",
    "In-memory compile-cache LRU evictions",
    labels=("layer",),
)
_COMPILES = _metrics.counter(
    "repro_compile_kernels_total",
    "compile_kernel calls by artifact provenance",
    labels=("provenance",),
)

#: Upper bound on cached CompileResults; each entry holds the full IR
#: module and three circuits, so the cache must not grow with the
#: number of distinct kernels a long-lived process constructs.
#: The ``REPRO_COMPILE_CACHE_MAX_ENTRIES`` environment variable
#: overrides it without code changes (long-lived services tune it up,
#: memory-tight workers tune it down).
COMPILE_CACHE_MAX_ENTRIES = 128

COMPILE_CACHE_MAX_ENTRIES_ENV = "REPRO_COMPILE_CACHE_MAX_ENTRIES"

_COMPILE_CACHE: "OrderedDict[tuple, CompileResult]" = OrderedDict()

#: Lookup counters for the in-memory layer, zeroed by
#: :func:`clear_compile_cache`.  A ``misses`` increment may still end
#: in a disk hit — the disk layer keeps its own counters.
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compile_cache_max_entries() -> int:
    """The effective LRU bound: the env override when set and valid,
    else :data:`COMPILE_CACHE_MAX_ENTRIES`."""
    raw = os.environ.get(COMPILE_CACHE_MAX_ENTRIES_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = -1
        if value >= 1:
            return value
    return COMPILE_CACHE_MAX_ENTRIES


def clear_compile_cache(disk: bool = False) -> None:
    """Drop every cached :class:`CompileResult` and zero the counters.

    ``disk=True`` also deletes the persistent on-disk layer's entries
    (:mod:`repro.exec.diskcache`) — what a benchmark's *cold-cache*
    mode needs, since a fresh process with a warm disk cache never
    actually compiles.
    """
    _COMPILE_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0
    _diskcache.reset_stats()
    if disk:
        _diskcache.clear()


def compile_cache_info() -> dict:
    """Observability hook: sizes, keys, and hit/miss/eviction counters
    for both cache layers (the in-memory LRU and, under ``"disk"``,
    the persistent store)."""
    return {
        "entries": len(_COMPILE_CACHE),
        "keys": list(_COMPILE_CACHE),
        "max_entries": compile_cache_max_entries(),
        **_CACHE_STATS,
        "disk": _diskcache.info(),
    }


def _cache_get(key: tuple) -> Optional[CompileResult]:
    with _trace.span("cache.lookup", layer="memory") as span:
        result = _COMPILE_CACHE.get(key)
        if result is not None:
            _COMPILE_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            outcome = "hit"
        else:
            _CACHE_STATS["misses"] += 1
            outcome = "miss"
        span.set(outcome=outcome)
    _CACHE_LOOKUPS.inc(layer="memory", outcome=outcome)
    return result


def _cache_put(key: tuple, result: CompileResult) -> None:
    _COMPILE_CACHE[key] = result
    _COMPILE_CACHE.move_to_end(key)
    bound = compile_cache_max_entries()
    while len(_COMPILE_CACHE) > bound:
        _COMPILE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
        _CACHE_EVICTIONS.inc(layer="memory")


def _capture_fingerprint(capture) -> tuple:
    from repro.frontend.decorators import (
        Bits,
        ClassicalFunction,
        QpuKernel,
    )

    if isinstance(capture, Bits):
        return ("bits", str(capture))
    if isinstance(capture, ClassicalFunction):
        return (
            "classical",
            capture.name,
            _source_fingerprint(capture.python_fn),
            tuple(sorted(capture.capture_values.items())),
        )
    if isinstance(capture, QpuKernel):
        return ("qpu", _kernel_fingerprint(capture))
    if isinstance(capture, (Parameter, ParamExpr)):
        # Keyed by *name*, never by value: one compile of a
        # parameterized kernel serves every subsequent bind().
        return ("parameter", str(capture))
    return ("opaque", repr(capture))


def _source_fingerprint(fn) -> tuple:
    code = getattr(fn, "__code__", None)
    location = (
        (code.co_filename, code.co_firstlineno) if code is not None else ()
    )
    try:
        return location + (inspect.getsource(fn),)
    except (OSError, TypeError):
        return location


def _kernel_fingerprint(kernel) -> tuple:
    """Identify a kernel by name, source, and capture values — two
    same-named kernels with different secrets must never share a cache
    entry."""
    return (
        kernel.name,
        _source_fingerprint(kernel.python_fn),
        tuple(
            (name, _capture_fingerprint(capture))
            for name, capture in kernel.captures.items()
        ),
    )


def compile_kernel(
    kernel,
    options: Optional[CompileOptions] = None,
    *,
    pipeline: Optional[str] = None,
    cache: bool = False,
) -> CompileResult:
    """Compile a ``@qpu`` kernel through the full pipeline.

    The configuration comes from at most one of ``options`` (a
    :class:`CompileOptions`) or ``pipeline`` (a preset name such as
    ``"no-opt"``); with neither, the ``"default"`` preset applies.
    ``pipeline="no-opt"`` reproduces the paper's "Asdf (No Opt)"
    Table 1 configuration; the result then has no flat circuit
    (function values survive as QIR callables).

    ``cache=True`` consults the per-process compile cache; the returned
    result is shared, so treat it as read-only.
    """
    with _trace.span(
        "compile.kernel",
        kernel=getattr(kernel, "name", "<kernel>"),
        cache=cache,
    ) as span:
        result = _compile_kernel_impl(
            kernel, options, pipeline=pipeline, cache=cache
        )
        span.set(provenance=result.provenance)
    _COMPILES.inc(provenance=result.provenance)
    return result


def _compile_kernel_impl(
    kernel,
    options: Optional[CompileOptions] = None,
    pipeline: Optional[str] = None,
    cache: bool = False,
) -> CompileResult:
    if options is not None and pipeline is not None:
        raise TypeError("pass at most one of options= and pipeline=")
    # Chaos hook: an active `compile_error` fault plan fails the
    # compile up front with a coded diagnostic (before any cache
    # consultation, so a warm cache cannot hide the injection).
    _faults.maybe_inject_compile_error(kernel.name)
    if options is None:
        options = CompileOptions.preset(
            "default" if pipeline is None else pipeline
        )

    cache_key = None
    disk_digest = None
    if cache:
        # The full (frozen) options participate in the key, so cached
        # results never cross configuration boundaries — a compile
        # requesting statistics or stricter verification is a miss,
        # not a stale hit with statistics=None.  The simulation
        # backend, kernel, noise model, and worker count are excluded:
        # they only affect execution, so the same compiled artifact
        # serves every backend, noise, and sharding configuration.
        cache_key = (
            _kernel_fingerprint(kernel),
            tuple(sorted(kernel.infer_dims().items())),
            dataclasses.replace(
                options,
                sim_backend=None,
                sim_kernel=None,
                noise_model=None,
                parallel_workers=None,
            ),
        )
        cached = _cache_get(cache_key)
        if cached is not None:
            cached.provenance = "memory"
            return cached
        # Second layer: the persistent on-disk store.  A hit skips
        # compilation entirely and warms the in-memory LRU; a corrupt
        # or stale-salt entry reads as a miss and is recompiled.
        disk_digest = _diskcache.key_digest(cache_key)
        from_disk = _diskcache.load(disk_digest)
        if isinstance(from_disk, CompileResult):
            from_disk.provenance = "disk"
            _cache_put(cache_key, from_disk)
            return from_disk

    statistics = PassStatistics() if options.collect_statistics else None

    def staged(name: str):
        if statistics is not None:
            return statistics.measure(name)
        import contextlib

        return contextlib.nullcontext()

    with staged("(frontend)"):
        module, dims = _build_qwerty_module(kernel)
    if options.verify:
        verify_module(module)
    make_qwerty_pass_manager(
        options.qwerty_spec,
        verify_each=options.verify_each,
        statistics=statistics,
    ).run(module)
    if options.verify:
        verify_module(module)

    with staged("(lower)"):
        qcircuit_module = lower_module(module)
    result = CompileResult(
        kernel.name,
        module,
        qcircuit_module,
        dims=dims,
        options=options,
        statistics=statistics,
    )
    if not options.to_circuit:
        if cache_key is not None:
            _cache_put(cache_key, result)
            _diskcache.store(disk_digest, result)
        return result

    with staged("(flatten)"):
        circuit = flatten_to_circuit(qcircuit_module)
    result.circuit = circuit

    optimized = copy_circuit(circuit)
    make_circuit_pass_manager(
        options.optimize_spec, statistics=statistics
    ).run(optimized)
    result.optimized_circuit = optimized

    decomposed = copy_circuit(optimized)
    make_circuit_pass_manager(
        options.decompose_spec, statistics=statistics
    ).run(decomposed)
    result.decomposed_circuit = decomposed

    # The execution form: gate fusion runs on a copy so the exporters,
    # gate counts, and resource estimates keep seeing plain gates.
    execution = optimized
    if options.fusion_spec:
        execution = copy_circuit(optimized)
        make_circuit_pass_manager(
            options.fusion_spec, statistics=statistics
        ).run(execution)
    result.execution_circuit = execution

    if cache_key is not None:
        _cache_put(cache_key, result)
        _diskcache.store(disk_digest, result)
    return result


def simulate_kernel_with_info(
    kernel,
    shots: int = 1,
    seed: int = 0,
    cache: bool = True,
    backend: Optional[str] = None,
    options: Optional[CompileOptions] = None,
    noise_model=None,
    params=None,
    parallel_workers: Optional[int] = None,
):
    """:func:`simulate_kernel`, also returning the run's telemetry.

    Returns ``(results, info)`` where ``info`` is the
    :class:`~repro.sim.backend.RunInfo` — including ``workers`` /
    ``chunks`` for sharded runs and ``compile_cache`` provenance
    (``"compiled"`` / ``"memory"`` / ``"disk"``) for the compile this
    run executed.
    """
    from repro.frontend.decorators import Bits
    from repro.sim import use_kernel
    from repro.sim.backend import run_circuit_with_info

    def explicit_or(value, fallback):
        # Explicit arguments win over the options' execution fields.
        return fallback if value is None else value

    if options is None:
        options = CompileOptions()
    result = compile_kernel(kernel, options, cache=cache)
    noise_model = explicit_or(noise_model, options.noise_model)
    provenance = result.provenance
    if params:
        # bind() never writes to the compile cache, so a sweep reuses
        # one cached symbolic compile for every point.
        result = result.bind(params)
    if noise_model is None:
        circuit = result.execution_circuit or result.optimized_circuit
    else:
        # Noise channels attach by gate name, so noisy runs execute the
        # unfused circuit (fused blocks would silently drop channels).
        circuit = result.optimized_circuit
    with use_kernel(options.sim_kernel):
        outcomes, info = run_circuit_with_info(
            circuit,
            shots=shots,
            seed=seed,
            backend=explicit_or(backend, options.sim_backend),
            noise_model=noise_model,
            parallel_workers=explicit_or(
                parallel_workers, options.parallel_workers
            ),
        )
    info = dataclasses.replace(info, compile_cache=provenance)
    return [Bits(outcome) for outcome in outcomes], info


def simulate_kernel(
    kernel,
    shots: int = 1,
    seed: int = 0,
    cache: bool = True,
    backend: Optional[str] = None,
    options: Optional[CompileOptions] = None,
    noise_model=None,
    params=None,
    parallel_workers: Optional[int] = None,
):
    """Compile and simulate a kernel, returning measured Bits per shot.

    Compilation goes through the two-layer compile cache — the
    per-process LRU (bounded by :func:`compile_cache_max_entries`)
    over the persistent on-disk store (:mod:`repro.exec.diskcache`) —
    so repeated calls, and even *fresh processes*, skip the compiler;
    pass ``cache=False`` to force a fresh compile.

    ``backend`` selects the simulation backend (docs/simulators.md);
    it falls back to ``options.sim_backend`` and then to the registry
    default (the vectorized ``"statevector"`` backend, which makes
    large ``shots`` near-free on terminal-measurement circuits)::

        simulate_kernel(kernel, shots=1024, backend="statevector")

    ``noise_model`` (a :class:`repro.noise.NoiseModel`) executes the
    compiled circuit under noise (docs/noise.md); it falls back to
    ``options.noise_model``.  Noise never affects compilation, so noisy
    and ideal runs share one cached compile::

        simulate_kernel(kernel, shots=1024,
                        noise_model=standard_noise_model(0.01))

    ``params`` maps parameter names (or Parameter objects) to concrete
    angles for kernels with symbolic angle captures; the *symbolic*
    compile is what the cache stores, and binding happens on the cached
    artifact per call (docs/variational.md)::

        simulate_kernel(kernel, shots=1024, params={"theta": 45.0})

    Every run goes through the parallel shot executor
    (:mod:`repro.exec`), the same path the service takes:
    ``parallel_workers`` shards the shot chunks across a process pool
    with per-chunk derived seeds (``None`` falls back to
    ``options.parallel_workers`` and then means one worker; ``0`` means
    one worker per core).  Results are deterministic per
    ``(seed, workers)``; sharding is best for trajectory workloads::

        simulate_kernel(kernel, shots=100_000, parallel_workers=4)
    """
    results, _ = simulate_kernel_with_info(
        kernel,
        shots=shots,
        seed=seed,
        cache=cache,
        backend=backend,
        options=options,
        noise_model=noise_model,
        params=params,
        parallel_workers=parallel_workers,
    )
    return results
