"""FlowDB: the analytic engine over Flowtree summaries (Section VI).

"FlowDB takes flow summaries as input, stores, and indexes them while
using them to answer FlowQL queries."
"""

from repro.flowdb.db import FlowDB, FlowDBEntry

__all__ = ["FlowDB", "FlowDBEntry"]
