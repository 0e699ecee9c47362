"""RL002: scheduling hot paths must stay bitwise deterministic.

Byte-identical shard responses (the differential conformance suite and the
warm/cold consistency check of the service benchmark) require that identical
requests take identical code paths.  Two classic leaks are flagged: drawing
from an unseeded random source (the stdlib ``random`` module's hidden
global state, numpy's legacy ``np.random.*`` globals, or
``default_rng()`` without an explicit seed) and iterating directly over a
``set`` (whose order depends on the hash salt and insertion history) —
sort first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import rule
from ._common import ScopedVisitor, dotted_name

#: numpy.random members that are seedable constructors, not global draws.
_NP_SEEDED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)
#: stdlib random members that construct an *explicitly seeded* source.
_STDLIB_SEEDED = frozenset({"Random", "SystemRandom"})


class _Visitor(ScopedVisitor):
    def __init__(self, path: str, random_aliases: set[str], numpy_aliases: set[str]):
        super().__init__()
        self.path = path
        self.random_aliases = random_aliases
        self.numpy_aliases = numpy_aliases
        self.findings: list[Finding] = []

    def _emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=node.lineno,
                col=node.col_offset,
                rule="RL002",
                symbol=self.symbol,
                message=message,
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if chain is not None:
            parts = chain.split(".")
            if (
                len(parts) == 2
                and parts[0] in self.random_aliases
                and parts[1] not in _STDLIB_SEEDED
            ):
                self._emit(
                    node,
                    f"call to '{chain}' draws from the unseeded global stdlib "
                    f"RNG; use a seeded np.random.default_rng(seed) instead",
                )
            elif (
                len(parts) == 3
                and parts[0] in self.numpy_aliases
                and parts[1] == "random"
                and parts[2] not in _NP_SEEDED
            ):
                self._emit(
                    node,
                    f"call to '{chain}' uses numpy's legacy global RNG; use a "
                    f"seeded np.random.default_rng(seed) instead",
                )
            if parts[-1] == "default_rng":
                args = node.args
                if not args or (
                    len(args) == 1
                    and isinstance(args[0], ast.Constant)
                    and args[0].value is None
                ):
                    self._emit(
                        node,
                        "default_rng() without an explicit seed is "
                        "nondeterministic across runs; pass a seed",
                    )
        self.generic_visit(node)

    def _check_iter(self, node: ast.AST) -> None:
        target = node
        if isinstance(target, ast.Call):
            func = dotted_name(target.func)
            if func not in ("set", "frozenset"):
                return
        elif not isinstance(target, (ast.Set, ast.SetComp)):
            return
        self._emit(
            target,
            "iteration order over a set is unspecified and breaks "
            "byte-identical responses; iterate over sorted(...) instead",
        )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def _module_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    random_aliases: set[str] = set()
    numpy_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or alias.name)
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or alias.name)
    return random_aliases, numpy_aliases


@rule(
    "RL002",
    "nondeterminism in scheduling hot paths",
    rationale=(
        "byte-identical responses across shards and replays require seeded "
        "RNGs and order-stable iteration"
    ),
    version=1,
    scope=(
        "core/",
        "online/",
        "sim/",
        "packing/",
        "baselines/",
        "model/",
        "workloads/",
        "service/",
    ),
)
def check_determinism(module, project) -> Iterator[Finding]:
    random_aliases, numpy_aliases = _module_aliases(module.tree)
    visitor = _Visitor(module.path, random_aliases, numpy_aliases)
    visitor.visit(module.tree)
    yield from visitor.findings
