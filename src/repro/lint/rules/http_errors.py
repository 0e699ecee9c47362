"""RL005: HTTP handlers must map model errors to 4xx, never bare 500.

The recurring PR 4/5 review theme: a client sending a malformed instance
must get a 400 with a diagnostic, not a 500 — a 500 means *our* bug and is
what the benchmarks count as a server error.  Concretely, inside any
``try`` statement that sends a 500 from a broad handler (``Exception``,
``BaseException`` or the ``ReproError`` root), an earlier handler must
already have mapped ``ModelError`` to a 4xx; and no handler that catches
``ModelError`` may answer with a 5xx.

Version 2 recognises the transport-split response constructors
(``Response(status, ...)`` / ``Response.json(status, ...)``) alongside the
legacy ``self._send_json(status, ...)`` helper.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import rule
from ._common import ScopedVisitor, caught_names, response_statuses

_BROAD = frozenset({"Exception", "BaseException", "ReproError"})


class _Visitor(ScopedVisitor):
    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self.findings: list[Finding] = []

    def visit_Try(self, node: ast.Try) -> None:
        model_mapped_4xx = False
        for handler in node.handlers:
            caught = caught_names(handler)
            statuses = response_statuses(handler)
            if "ModelError" in caught:
                if any(s >= 500 for s in statuses):
                    self.findings.append(
                        Finding(
                            path=self.path,
                            line=handler.lineno,
                            col=handler.col_offset,
                            rule="RL005",
                            symbol=self.symbol,
                            message=(
                                "handler catching ModelError answers with a "
                                "5xx; client-input errors must map to 4xx"
                            ),
                        )
                    )
                if any(400 <= s < 500 for s in statuses):
                    model_mapped_4xx = True
            elif caught & _BROAD and 500 in statuses and not model_mapped_4xx:
                self.findings.append(
                    Finding(
                        path=self.path,
                        line=handler.lineno,
                        col=handler.col_offset,
                        rule="RL005",
                        symbol=self.symbol,
                        message=(
                            f"broad handler ({', '.join(sorted(caught & _BROAD))}) "
                            f"maps ReproError subclasses to a bare 500; add a "
                            f"preceding 'except ModelError' answering 4xx"
                        ),
                    )
                )
        self.generic_visit(node)


@rule(
    "RL005",
    "ReproError subclasses must map to 4xx, not bare 500",
    rationale=(
        "malformed client input must surface as 400-with-diagnostic; a 500 "
        "is reserved for genuine server bugs"
    ),
    version=2,
    scope=("service/",),
)
def check_http_error_mapping(module, project) -> Iterator[Finding]:
    visitor = _Visitor(module.path)
    visitor.visit(module.tree)
    yield from visitor.findings
