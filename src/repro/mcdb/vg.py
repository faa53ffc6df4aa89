"""VG-function framework and the pluggable VG registry.

A VG ("variable generation") function produces realizations of one
stochastic attribute for every tuple of a relation.  Independence
structure is expressed through *blocks*: rows within a block may be
arbitrarily correlated (e.g. trades on the same stock share a Brownian
path, Section 6.1), while distinct blocks are statistically independent.
The block partition is what makes both of the paper's summary-generation
strategies (Section 5.5) possible:

* **tuple-wise** generation seeds one RNG per *block* and draws all ``M``
  realizations for that block at once;
* **scenario-wise** generation seeds one RNG per *scenario* and draws one
  realization of every block.

Subclasses implement :meth:`_sample_block`.  :meth:`sample_all` loops
the blocks by default; where that loop is hot a subclass overrides it
with array code, best written to return the loop's exact stream, as
the GBM family's does for every horizon layout.

The **registry** makes VG families constructible by name: decorate a
class with :func:`register_vg` and it becomes reachable from
:func:`make_vg`, the workload specs, ``SPQConfig.vg_overrides``, and the
CLI's ``--vg`` flag without the caller importing the class.  Every
:class:`VGFunction` also exposes :meth:`~VGFunction.params_fingerprint`,
a stable hash of its constructor parameters that feeds the shared
:class:`repro.service.ScenarioStore` content keys — two VGs differing
only in a parameter can never share cached scenario matrices.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from abc import ABC, abstractmethod

import numpy as np

from ..errors import VGFunctionError

#: Instance attributes written by :meth:`VGFunction.bind` (and the
#: fingerprint cache itself); everything else in ``__dict__`` is treated
#: as a constructor parameter by :meth:`VGFunction.params_fingerprint`.
_BINDING_FIELDS = frozenset(
    {"_relation", "_blocks", "_block_of_row", "_params_fp"}
)


class VGFunction(ABC):
    """Base class for variable-generation functions.

    A VG function must be *bound* to a relation before sampling; binding
    resolves column references and fixes the block partition.  Bound
    instances are immutable with respect to sampling: the same RNG state
    always produces the same realizations.
    """

    def __init__(self) -> None:
        self._relation = None
        self._blocks: list[np.ndarray] | None = None
        self._block_of_row: np.ndarray | None = None
        self._params_fp: str | None = None

    # --- binding -------------------------------------------------------------

    def bind(self, relation) -> "VGFunction":
        """Resolve columns against ``relation`` and build the block partition."""
        # Snapshot the constructor-parameter fingerprint before any bound
        # state lands in __dict__, so it is identical pre- and post-bind.
        self.params_fingerprint()
        self._relation = relation
        self._blocks = self._build_blocks(relation)
        covered = np.full(relation.n_rows, -1, dtype=np.int64)
        if self._blocks:
            sizes = np.fromiter(map(len, self._blocks), dtype=np.int64)
            flat = np.concatenate(self._blocks).astype(np.int64, copy=False)
            covered[flat] = np.repeat(np.arange(len(sizes)), sizes)
            # A row named by two blocks is written twice but counted once.
            if np.count_nonzero(covered >= 0) != len(flat):
                raise VGFunctionError("blocks must be disjoint")
        if np.any(covered < 0):
            raise VGFunctionError("blocks must cover every row of the relation")
        self._block_of_row = covered
        self._after_bind(relation)
        return self

    def _build_blocks(self, relation) -> list[np.ndarray]:
        """Default partition: every row is its own (independent) block."""
        return [np.array([i]) for i in range(relation.n_rows)]

    def _after_bind(self, relation) -> None:
        """Hook for subclasses to precompute bound state."""

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has attached a relation."""
        return self._relation is not None

    def _require_bound(self):
        if self._relation is None:
            raise VGFunctionError(
                f"{type(self).__name__} must be bound to a relation before use"
            )
        return self._relation

    @property
    def n_rows(self) -> int:
        """Row count of the bound relation."""
        return self._require_bound().n_rows

    @property
    def blocks(self) -> list[np.ndarray]:
        """The independence partition: row positions of each block."""
        self._require_bound()
        assert self._blocks is not None
        return self._blocks

    @property
    def n_blocks(self) -> int:
        """Number of independence blocks."""
        return len(self.blocks)

    def block_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Block index for each given row position."""
        self._require_bound()
        assert self._block_of_row is not None
        return self._block_of_row[rows]

    # --- sampling ------------------------------------------------------------

    @abstractmethod
    def _sample_block(
        self, block_index: int, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Draw ``size`` i.i.d. realizations of one block.

        Returns an array of shape ``(block_len, size)``.
        """

    def sample_block(
        self, block_index: int, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Public wrapper around :meth:`_sample_block` with shape checking."""
        self._require_bound()
        values = np.asarray(self._sample_block(block_index, rng, size), dtype=float)
        expected = (len(self.blocks[block_index]), size)
        if values.shape != expected:
            raise VGFunctionError(
                f"{type(self).__name__}._sample_block returned shape"
                f" {values.shape}, expected {expected}"
            )
        return values

    def sample_all(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one full scenario (one value per row).

        The default implementation loops blocks in order with a single
        shared RNG.  Subclasses may override it with array code.  The
        contract asks only for the same *distribution*. An override that
        returns this loop's exact stream (as GBM's does) can be tested
        byte for byte against it.
        """
        relation = self._require_bound()
        out = np.empty(relation.n_rows, dtype=float)
        for b, rows in enumerate(self.blocks):
            out[rows] = self._sample_block(b, rng, 1)[:, 0]
        return out

    # --- analytic structure ----------------------------------------------------

    def mean(self) -> np.ndarray | None:
        """Per-row expectation, if available in closed form (else ``None``).

        Used by the expectation-precomputation phase (Section 3.2) to skip
        Monte Carlo averaging.
        """
        return None

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row support interval ``(lo, hi)``; ±inf where unbounded.

        Feeds the objective-value bounds of Appendix B (assumption A1).
        """
        n = self.n_rows
        return np.full(n, -np.inf), np.full(n, np.inf)

    # --- cloning ----------------------------------------------------------------

    def unbound_copy(self) -> "VGFunction":
        """A fresh, bindable instance with the same constructor parameters.

        The out-of-core tier (``repro.scale``) evaluates partitions of a
        relation as standalone sub-relations, which needs the original
        model's VG families re-bound to each partition.  The copy shares
        parameter objects with the original (parameters are treated as
        immutable) but carries no binding, and nested VG parameters —
        e.g. a mixture's components — are recursively copied, so binding
        the copy can never mutate the original's bound state.  Stale
        subclass bound state (resolved column arrays and the like) is
        intentionally left in place: :meth:`bind` recomputes all of it
        via ``_after_bind``.

        Per-row *array* parameters resolved against the original
        relation (e.g. a per-row ``sigma``) keep their full length and
        will fail their shape check when re-bound to a shorter
        partition; families parameterized by column names re-resolve
        cleanly.
        """
        clone = copy.copy(self)
        clone._relation = None
        clone._blocks = None
        clone._block_of_row = None
        for name, value in list(clone.__dict__.items()):
            if name in _BINDING_FIELDS:
                continue
            clone.__dict__[name] = _copy_nested_vgs(value)
        return clone

    # --- identity ---------------------------------------------------------------

    def params_fingerprint(self) -> str:
        """Stable SHA-256 hex digest of this VG's type and parameters.

        The digest covers the class identity plus every constructor
        parameter (everything in ``__dict__`` except bound state), so two
        instances of the same family with different parameters always
        fingerprint differently, while binding a VG never changes its
        fingerprint.  :func:`repro.service.store.model_fingerprint` folds
        it into the :class:`~repro.service.ScenarioStore` content keys,
        which is what rules out false cache hits between VG
        configurations.  The value is computed once (on first call or at
        :meth:`bind`, whichever comes first) and cached.
        """
        if self._params_fp is None:
            digest = hashlib.sha256()
            digest.update(type(self).__module__.encode())
            digest.update(b"\x00")
            digest.update(type(self).__qualname__.encode())
            for name in sorted(self.__dict__):
                if name in _BINDING_FIELDS:
                    continue
                digest.update(b"\x00")
                digest.update(name.encode())
                digest.update(b"=")
                digest.update(_canonical_param(self.__dict__[name]))
            self._params_fp = digest.hexdigest()
        return self._params_fp


def _copy_nested_vgs(value):
    """Replace VG functions inside a parameter value with unbound copies."""
    if isinstance(value, VGFunction):
        return value.unbound_copy()
    if isinstance(value, list):
        return [_copy_nested_vgs(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy_nested_vgs(v) for v in value)
    return value


def _canonical_param(value) -> bytes:
    """A stable byte rendering of one constructor parameter.

    Handles the parameter kinds the built-in families use — scalars,
    strings, arrays, nested VG functions, and containers of those — and
    falls back to a pickle digest for anything else.
    """
    if isinstance(value, VGFunction):
        return b"vg:" + value.params_fingerprint().encode()
    if isinstance(value, np.ndarray):
        body = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"nd:{value.shape}:{value.dtype}:{body}".encode()
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value).encode()
    if isinstance(value, (list, tuple)):
        return b"seq:[" + b",".join(_canonical_param(v) for v in value) + b"]"
    if isinstance(value, dict):
        return b"map:{" + b",".join(
            _canonical_param(k) + b":" + _canonical_param(value[k])
            for k in sorted(value, key=repr)
        ) + b"}"
    try:
        return b"pkl:" + hashlib.sha256(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).digest()
    except Exception:  # pragma: no cover - unpicklable custom params
        return b"repr:" + repr(value).encode()


# --- registry -----------------------------------------------------------------

#: Global name → VGFunction subclass registry (see :func:`register_vg`).
_VG_REGISTRY: dict[str, type] = {}


def register_vg(name: str):
    """Class decorator registering a :class:`VGFunction` under ``name``.

    Registered families are constructible by :func:`make_vg` (and hence
    from workload specs, ``SPQConfig.vg_overrides``, and the CLI's
    ``--vg`` flag).  Names are case-insensitive and must be unique; a
    *different* class may not claim a taken name.  Re-registering the
    same class — or a same-named class from the same module, which is
    what ``importlib.reload`` produces — replaces the entry, so module
    reloads are safe.

    Usage::

        @register_vg("my_noise")
        class MyNoiseVG(VGFunction): ...
    """
    key = name.strip().lower()
    if not key:
        raise VGFunctionError("VG registry names must be non-empty")

    def decorate(cls: type) -> type:
        existing = _VG_REGISTRY.get(key)
        if (
            existing is not None
            and existing is not cls
            and (existing.__module__, existing.__qualname__)
            != (cls.__module__, cls.__qualname__)
        ):
            raise VGFunctionError(
                f"VG name {key!r} is already registered to"
                f" {existing.__qualname__}"
            )
        _VG_REGISTRY[key] = cls
        return cls

    return decorate


def vg_names() -> list[str]:
    """Sorted names of all registered VG families."""
    return sorted(_VG_REGISTRY)


def make_vg(name: str, **params) -> VGFunction:
    """Construct a registered VG family by name.

    ``params`` are passed to the family's constructor as keyword
    arguments; a wrong or missing parameter raises
    :class:`VGFunctionError` naming the family (rather than a bare
    ``TypeError``), so registry-driven callers (CLI, workload specs) get
    actionable messages.
    """
    key = name.strip().lower()
    cls = _VG_REGISTRY.get(key)
    if cls is None:
        raise VGFunctionError(
            f"unknown VG family {name!r}; registered: {vg_names()}"
        )
    try:
        return cls(**params)
    except VGFunctionError:
        raise
    except (TypeError, ValueError) as error:
        # Wrong keyword names, and constructor-level coercion failures
        # (e.g. float("abc")), both surface as actionable registry errors.
        raise VGFunctionError(
            f"bad parameters for VG family {key!r}: {error}"
        ) from None


def parse_vg_expr(text: str) -> VGFunction:
    """Build a VG from a ``kind:param=value,...`` registry expression.

    This is the textual surface shared by the CLI ``--vg`` flag,
    ``SPQConfig.vg_overrides``, and :meth:`QuerySpec.build_dataset
    <repro.workloads.spec.QuerySpec.build_dataset>`:

    * ``kind`` is a registered family name (see :func:`vg_names`);
    * each ``param=value`` becomes a constructor keyword argument;
    * values parse as ``int``, then ``float``, then the literals
      ``true``/``false``/``none``; anything else stays a string (column
      names resolve at bind time);
    * ``+`` inside a value builds a list (e.g. ``cols=h0+h1+h2``).

    Example: ``gaussian_copula:base=exp_gain,scale=gain_sd,rho=0.6,group=sector``.
    """
    kind, _, params_text = text.strip().partition(":")
    kind = kind.strip()
    if not kind:
        raise VGFunctionError(
            f"bad VG expression {text!r}: expected kind:param=value,..."
        )
    params = {}
    for part in filter(None, (p.strip() for p in params_text.split(","))):
        key, eq, raw = part.partition("=")
        if not eq or not key.strip():
            raise VGFunctionError(
                f"bad VG parameter {part!r} in {text!r}: expected param=value"
            )
        params[key.strip()] = _parse_param_value(raw.strip())
    return make_vg(kind, **params)


def _parse_param_value(raw: str):
    """Parse one textual parameter value (int/float/bool/None/str/list).

    Numeric parsing is attempted before list-splitting so scientific
    notation (``1e+3``) stays a single number; ``+`` only builds a list
    when the whole token is not a number.
    """
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered == "none":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "+" in raw:
        return [_parse_param_value(v) for v in raw.split("+")]
    return raw


def grouped_blocks(values: np.ndarray) -> list[np.ndarray]:
    """Partition row positions by equal values of ``values``.

    Used by VG functions whose correlation structure is keyed by a
    grouping column (e.g. stock symbol).  Blocks preserve first-occurrence
    order, and rows inside a block keep their relation order, making the
    partition deterministic.
    """
    values = np.asarray(values)
    first_seen: dict = {}
    codes = np.fromiter(
        (first_seen.setdefault(v, len(first_seen)) for v in values.tolist()),
        dtype=np.int64,
        count=len(values),
    )
    rows = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(first_seen))).tolist()
    return [rows[start:end] for start, end in zip([0] + ends[:-1], ends)]
