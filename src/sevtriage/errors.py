"""Exception types shared across the toolkit."""


class TriageError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(TriageError):
    """A CSV header unfit for its schema: none, a required column missing, a mapped one repeated, or a key not a field."""


class RowError(TriageError):
    """A CSV data row could not be parsed.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no, self.message = line_no, message

    def __reduce__(self):  # pickle rebuilds it from both arguments, not from the formatted text
        return type(self), (self.line_no, self.message)


class LabelError(TriageError):
    """Labeling was attempted on records with missing scores."""


class StratificationError(TriageError):
    """A stratified split or fold assignment is impossible."""


class ShapeError(TriageError):
    """Matrix dimensions do not line up."""


class FitError(TriageError):
    """A model cannot be fitted on the given data."""


class DomainError(TriageError):
    """Input values fall outside the valid domain of an operation."""


class ConfigError(TriageError):
    """An invalid hyperparameter or option combination."""


class TrainingDivergedError(TriageError):
    """Optimization produced a non-finite loss."""
