"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`SamDistillError`
so the CLI can translate any expected failure into a nonzero exit code.
"""


class SamDistillError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(SamDistillError):
    """A scene spec cannot be realised (objects do not fit the frustum, bad ranges)."""


class InvalidInputError(SamDistillError):
    """Caller passed values outside an operation's domain (non-finite coordinates, bad camera)."""


class MalformedManifestError(SamDistillError):
    """A JSON manifest is missing, unparsable, or lacks required keys."""


class MagicMismatchError(SamDistillError):
    """A binary blob does not start with the expected magic bytes."""


class TruncatedBlobError(SamDistillError):
    """A binary blob holds fewer bytes than its manifest shape requires."""


class DimensionMismatchError(SamDistillError):
    """Manifest dimensions are inconsistent with each other or with blob sizes."""


class InvalidCountError(SamDistillError):
    """A sampling count exceeds what the input provides (e.g. more picks than points)."""


class EmptyTokenizationError(SamDistillError):
    """No token survived; the caller decides whether to skip the scene."""


class ShapeMismatchError(SamDistillError):
    """Tensor operation received incompatible shapes."""

    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {shapes}")
        self.op = op
        self.shapes = shapes


class NonFiniteError(SamDistillError):
    """Tensor operation produced or received a non-finite value."""

    def __init__(self, op: str, detail: str = ""):
        msg = f"{op}: non-finite value"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.op = op


class DegeneratePlanError(SamDistillError):
    """A mask plan left the student with zero visible tokens."""


class DivergedRunError(SamDistillError):
    """Training produced a non-finite gradient or value; the last good checkpoint is retained.

    ``step`` counts optimizer steps from 1; ``op`` names the engine op that
    produced a non-finite value, or is None for a non-finite gradient.
    """

    def __init__(self, step: int, op: str | None = None):
        what = "gradient" if op is None else f"value from {op}"
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.op = op


class BadSplitError(SamDistillError):
    """A probe split is empty, or its evaluation split holds a class its training split lacks."""


class InconsistencyError(SamDistillError):
    """An internal alignment that should hold by construction was violated."""
