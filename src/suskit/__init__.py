"""System Usability Scale scoring, reporting, and charting toolkit.

Parses delimited questionnaire response files, computes SUS scores,
classifies them by acceptability, grade, and adjective rating, and
renders deterministic text reports and SVG charts.
"""

from .charts import (
    CATEGORY_TITLES,
    HISTOGRAM_TITLE,
    render_category_chart,
    render_histogram,
)
from .ingest import (
    DEFAULT_DELIMITER,
    BadFieldCountError,
    EmptyInputError,
    NotAnIntegerError,
    OutOfRangeError,
    ParseError,
    ParseReport,
    ResponseRow,
    load_responses,
    parse_responses,
)
from .report import (
    DEFAULT_REPORT_PATH,
    InsufficientDataError,
    render_report,
    render_single_report,
    write_report,
)
from .scoring import (
    DIMENSIONS,
    Acceptability,
    Adjective,
    Grade,
    classify_each,
    score_all,
    score_response,
)
from .stats import (
    EmptyScoreSetError,
    FrequencyTable,
    HistogramBins,
    SurveyStats,
    descriptive_stats,
    frequency_table,
    histogram_bins,
)

__version__ = "0.1.0"

__all__ = [
    "Acceptability",
    "Adjective",
    "BadFieldCountError",
    "CATEGORY_TITLES",
    "DEFAULT_DELIMITER",
    "DEFAULT_REPORT_PATH",
    "DIMENSIONS",
    "EmptyInputError",
    "EmptyScoreSetError",
    "FrequencyTable",
    "Grade",
    "HISTOGRAM_TITLE",
    "HistogramBins",
    "InsufficientDataError",
    "NotAnIntegerError",
    "OutOfRangeError",
    "ParseError",
    "ParseReport",
    "ResponseRow",
    "SurveyStats",
    "classify_each",
    "descriptive_stats",
    "frequency_table",
    "histogram_bins",
    "load_responses",
    "parse_responses",
    "render_category_chart",
    "render_histogram",
    "render_report",
    "render_single_report",
    "score_all",
    "score_response",
    "write_report",
]
