"""In-source markers the analysis recognises.

:func:`pure` is an identity decorator: it changes nothing at runtime,
but EFF301 treats any function carrying it as declared pure and fails
the lint if the function's transitive write effect is non-empty. Code
under :mod:`repro.core` keeps using the config-side ``declared_pure``
patterns instead of importing this module — the hot core's import
closure is pinned (see ``repro.harness.cache.FINGERPRINT_PACKAGES``)
and must not grow a dependency on the analysis package.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])


def pure(fn: F) -> F:
    """Declare ``fn`` effect-free; enforced statically by EFF301."""
    return fn
