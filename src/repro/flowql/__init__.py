"""FlowQL: the SQL-like query language over Flowtrees (Section VI).

"With FlowQL the user chooses his operator via a SELECT clause, one or
multiple time periods via a FROM clause, and the feature set via a
WHERE clause."

Grammar (case-insensitive keywords)::

    query  := SELECT op FROM timespec [VS timespec] [AT site {, site}]
              [WHERE feature = value {AND feature = value}] [BY metric]
    op     := QUERY | TOTAL | DRILLDOWN | TOPK(k) | ABOVE(x) | HHH(t)
              | GROUPBY(feature, level)
    timespec := TIME(start, end) | ALL
    value  := number | ip[/mask] | ident

``VS`` selects a second time period and answers over the *difference*
of the two summaries (the Diff operator).  ``HHH(t)`` treats ``t < 1``
as a fraction of total traffic.  Example::

    SELECT TOPK(10) FROM TIME(0, 3600)
        AT region1/router1, region2/router1
        WHERE dst_port = 443 BY bytes
"""

from repro.flowql.lexer import Token, tokenize
from repro.flowql.ast import FlowQLQuery, OpCall, Restriction, TimeSpec
from repro.flowql.parser import parse
from repro.flowql.executor import (
    FlowQLResult,
    apply_operator,
    compile_pattern,
)

__all__ = [
    "tokenize",
    "Token",
    "parse",
    "FlowQLQuery",
    "OpCall",
    "TimeSpec",
    "Restriction",
    "FlowQLResult",
    "apply_operator",
    "compile_pattern",
]
