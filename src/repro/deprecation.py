"""Deprecation warning class for the public-surface migration to ``repro.api``.

A deprecated entry point keeps working (it delegates to its
replacement) but emits a :class:`ReproDeprecationWarning` — a dedicated
``DeprecationWarning`` subclass so callers and CI can escalate *our*
deprecations to errors (``warnings.simplefilter("error",
ReproDeprecationWarning)``) without tripping over unrelated
deprecations in third-party packages.  No deprecated entry point is
left; the class stays for the examples gate and any future shim.
"""

from __future__ import annotations


class ReproDeprecationWarning(DeprecationWarning):
    """A deprecated ``repro`` entry point was used."""
