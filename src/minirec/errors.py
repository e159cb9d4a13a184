"""Exception types shared across the package.

Every error raised by minirec derives from MinirecError so callers can
catch the whole family at a process boundary (CLI, HTTP handler) while
tests assert on the specific class.
"""


class MinirecError(Exception):
    """Base class for all minirec errors."""


# --- configuration ---------------------------------------------------------

class ConfigError(MinirecError):
    """Base class for configuration problems."""


class MissingSection(ConfigError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required config section: {name!r}")


class UnknownKey(ConfigError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"unknown config key: {path!r}")


class InvalidValue(ConfigError):
    """Bad value at a config path or in raw feature input."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"invalid value at {path!r}: {reason}")


# --- values ----------------------------------------------------------------

class NonFinite(MinirecError):
    """NaN or an infinity where only finite numbers are valid.

    Raised for a feature value, a score passed to `auc`, a value in a
    delta message and a training batch's logit; `rows` then holds the
    1-based data row numbers of the batch's non-finite logits, in batch
    order, and `value` the first of those logits.
    """

    def __init__(self, value: float, rows: list[int] | None = None):
        self.value = value
        self.rows = rows
        where = "" if rows is None else f" in the logits of data rows {rows}"
        super().__init__(f"non-finite value: {value!r}{where}")


# --- model math ------------------------------------------------------------

class IndexOutOfRange(MinirecError):
    def __init__(self, index: int, limit: int):
        self.index = index
        self.limit = limit
        super().__init__(f"row index {index} out of range [0, {limit})")


class DimensionMismatch(MinirecError):
    pass


class SlotMismatch(MinirecError):
    pass


class DegenerateLabels(MinirecError):
    """AUC is undefined when only one label class is present.

    The logloss of the batch is still well defined and is carried on the
    exception so callers that only need it do not have to recompute.
    """

    def __init__(self, logloss: float):
        self.logloss = logloss
        super().__init__("AUC undefined: labels contain a single class")


# --- training --------------------------------------------------------------

class DataError(MinirecError):
    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"bad data row {row}: {reason}")


# --- serialization and transport -------------------------------------------

class IoError(MinirecError):
    pass


class FormatError(MinirecError):
    pass


class ChecksumError(MinirecError):
    pass


class VersionGap(MinirecError):
    """A delta frame more than one version above the parameters it would update."""


# --- serving ---------------------------------------------------------------

class UnknownSlot(MinirecError):
    pass


class UnknownTensor(MinirecError):
    pass


# --- sample stream ---------------------------------------------------------

class MalformedEvent(MinirecError):
    pass
