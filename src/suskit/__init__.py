"""System Usability Scale scoring, reporting, and charting toolkit.

Parses delimited questionnaire response files, computes SUS scores,
classifies them by acceptability, grade, and adjective rating, and
renders deterministic text reports and SVG charts.
"""

# Each module lists its own public names in its __all__; the package exports them all.
from .charts import *  # noqa: F403
from .ingest import *  # noqa: F403
from .report import *  # noqa: F403
from .scoring import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = charts.__all__ + ingest.__all__ + report.__all__ + scoring.__all__ + stats.__all__  # noqa: F405
