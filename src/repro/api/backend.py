"""Backend selection policy: one object instead of scattered ``backend=``.

Before the facade existed, every entry point grew its own
``backend="scalar"|"vectorized"|"auto"`` keyword with its own default.
:class:`BackendPolicy` centralises the decision in one field, ``mode``:

* ``"scalar"`` — the reference per-outcome path;
* ``"vectorized"`` — the engine kernels, raising when none applies;
* ``"auto"`` — the engine whenever a kernel covers the (estimator,
  scheme) pair, the scalar path otherwise.  The input's size plays no
  part: the kernels evaluate the same closed forms as the scalar path,
  so the rule is a coverage question, never a tuning knob.

The process-wide default is ``auto`` and can be overridden without code
changes through the environment (``REPRO_BACKEND=scalar|vectorized|auto``)
or programmatically with :func:`set_default_backend` — which is what
``run_all --backend`` uses.

Every legacy ``backend=`` argument now accepts ``None`` (use the default
policy), one of the three mode strings, or a :class:`BackendPolicy`, and
resolves it through :meth:`BackendPolicy.coerce` — so the scattered
keywords share one default and one resolution rule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "BACKEND_MODES",
    "BackendPolicy",
    "BackendSpec",
    "default_backend",
    "set_default_backend",
]

#: The three recognised dispatch modes.
BACKEND_MODES = ("scalar", "vectorized", "auto")

#: Environment variable consulted for the process-wide default.
ENV_MODE = "REPRO_BACKEND"


@dataclass(frozen=True)
class BackendPolicy:
    """An immutable backend decision rule.

    The estimation layers dispatch on ``mode`` directly;
    :meth:`resolve_exact` is the variant for exact (ground-truth)
    queries, which have no kernel-availability question and therefore
    never run ``"auto"``.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in BACKEND_MODES:
            raise ValueError(
                f"backend mode must be one of {BACKEND_MODES}, got {self.mode!r}"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "BackendPolicy":
        """The process-wide policy: override > environment > ``auto``."""
        if _DEFAULT_OVERRIDE is not None:
            return _DEFAULT_OVERRIDE
        mode = os.environ.get(ENV_MODE, "").strip().lower() or "auto"
        if mode not in BACKEND_MODES:
            raise ValueError(
                f"{ENV_MODE}={mode!r} is not a valid backend mode "
                f"(expected one of {BACKEND_MODES})"
            )
        return cls(mode=mode)

    @classmethod
    def coerce(cls, spec: "BackendSpec") -> "BackendPolicy":
        """Normalise ``None`` / a mode string / a policy into a policy."""
        if spec is None:
            return cls.default()
        if isinstance(spec, BackendPolicy):
            return spec
        if isinstance(spec, str):
            return cls(mode=spec)
        raise TypeError(
            "backend must be None, one of "
            f"{BACKEND_MODES}, or a BackendPolicy; got {spec!r}"
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_exact(self) -> str:
        """Dispatch decision for exact queries: scalar or vectorized only."""
        return "vectorized" if self.mode == "auto" else self.mode


#: Accepted forms of a backend specification throughout the library.
BackendSpec = Union[None, str, BackendPolicy]

_DEFAULT_OVERRIDE: Optional[BackendPolicy] = None


def default_backend() -> BackendPolicy:
    """The current process-wide default policy."""
    return BackendPolicy.default()


def set_default_backend(spec: BackendSpec) -> Optional[BackendPolicy]:
    """Install (or with ``None`` clear) a process-wide default policy.

    Takes precedence over the ``REPRO_BACKEND`` environment variable; the
    CLI entry points use it so one flag governs a whole run.  Returns the
    previously installed override (or ``None``) so a temporary change can
    be restored exactly::

        previous = set_default_backend("vectorized")
        try:
            ...
        finally:
            set_default_backend(previous)
    """
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = None if spec is None else BackendPolicy.coerce(spec)
    return previous
