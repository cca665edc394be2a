"""Intra-procedural control-flow graphs over ``ast`` function bodies.

The ordered-provenance form of DET002 needs *paths*, not just syntax:
"a value proven sorted on every path reaching this loop" is a
statement about control flow. This module builds a conventional
basic-block CFG for one function:

* **Block entries** are statements *or* the expression parts of control
  headers (an ``if``/``while`` test, ``with`` items, a ``match``
  subject). ``for`` loops contribute the ``ast.For`` node itself as the
  loop-header entry so transfer functions can model the target binding
  and rules can inspect the iterable with the header's entry state.
* **Edges** cover branches, loop back-edges, ``break`` / ``continue``,
  ``return`` / ``raise`` (to the exit block) and a conservative
  exception model for ``try``: inside a ``try`` body every statement
  gets its own block with an edge to every handler, so a handler's
  entry state joins the states after *each* statement that may raise.
  ``finally`` bodies are approximated as straight-line code after the
  body/handler merge — precise enough for the may-analyses built here,
  all of which only ever *widen* along extra edges.
* Nested ``def`` / ``async def`` / ``lambda`` / ``class`` bodies are
  opaque single entries: each nested function gets its own CFG when the
  caller asks for one. Their control flow never leaks into the
  enclosing graph.

Determinism: block ids are allocated in syntactic order and
:meth:`CFG.rpo` resolves ties by id, so every analysis over a CFG
iterates in a platform-independent order — the analysis pass holds
itself to the determinism policy it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

#: What a basic block holds: plain statements, header expressions, or
#: (for loop headers) the ``ast.For`` / ``ast.AsyncFor`` node itself.
CFGEntry = Union[ast.stmt, ast.expr]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class Block:
    """One basic block: a straight-line run of CFG entries."""

    block_id: int
    entries: List[CFGEntry] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: Dict[int, Block] = {}
        self._next_id = 0
        self.entry = self.new_block().block_id
        self.exit = self.new_block().block_id

    def new_block(self) -> Block:
        block = Block(self._next_id)
        self._next_id += 1
        self.blocks[block.block_id] = block
        return block

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def rpo(self) -> List[int]:
        """Reverse post-order from the entry block (deterministic).

        Blocks unreachable from the entry (e.g. code after ``return``)
        are appended afterwards in id order so analyses still visit
        them (with bottom entry states).
        """
        seen: Dict[int, bool] = {}
        order: List[int] = []

        def dfs(block_id: int) -> None:
            seen[block_id] = True
            for succ in sorted(self.blocks[block_id].succs):
                if succ not in seen:
                    dfs(succ)
            order.append(block_id)

        dfs(self.entry)
        order.reverse()
        for block_id in sorted(self.blocks):
            if block_id not in seen:
                order.append(block_id)
        return order


class _LoopFrame:
    """Break/continue targets of the innermost enclosing loop."""

    def __init__(self, header: int, after: int) -> None:
        self.header = header
        self.after = after


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.current: int = self.cfg.entry
        self.loops: List[_LoopFrame] = []
        #: Entry blocks of the active ``except`` handlers; every
        #: statement emitted while this is non-empty may transfer there.
        self.handlers: List[List[int]] = []
        #: True once the current block ended in a jump (return/raise/
        #: break/continue): the next entry opens an unreachable block.
        self.dead = False

    # -- low-level emission --------------------------------------------

    def _start_block(self, *preds: int) -> int:
        block = self.cfg.new_block()
        for pred in preds:
            self.cfg.add_edge(pred, block.block_id)
        self.current = block.block_id
        self.dead = False
        return block.block_id

    def _seal_into(self, dst: int) -> None:
        """Edge from the current block to ``dst`` unless control already
        left the block via a jump."""
        if not self.dead:
            self.cfg.add_edge(self.current, dst)

    def emit(self, entry: CFGEntry) -> None:
        """Append one entry to the current block, giving every statement
        inside a ``try`` body its own block with handler edges."""
        if self.dead:
            self._start_block()
        self.cfg.blocks[self.current].entries.append(entry)
        if self.handlers:
            src = self.current
            for handler_entry in self.handlers[-1]:
                self.cfg.add_edge(src, handler_entry)
            nxt = self.cfg.new_block()
            self.cfg.add_edge(src, nxt.block_id)
            self.current = nxt.block_id

    def _jump(self, dst: int) -> None:
        self._seal_into(dst)
        self.dead = True

    # -- statements ----------------------------------------------------

    def build(self, fn: FunctionNode) -> CFG:
        self.visit_body(fn.body)
        self._seal_into(self.cfg.exit)
        return self.cfg

    def visit_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._visit_if(stmt)
        elif isinstance(stmt, ast.While):
            self._visit_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_for(stmt)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.Match):
            self._visit_match(stmt)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self.emit(stmt)
            self._jump(self.cfg.exit)
        elif isinstance(stmt, ast.Break):
            self.emit(stmt)
            if self.loops:
                self._jump(self.loops[-1].after)
            else:  # pragma: no cover - syntactically invalid source
                self._jump(self.cfg.exit)
        elif isinstance(stmt, ast.Continue):
            self.emit(stmt)
            if self.loops:
                self._jump(self.loops[-1].header)
            else:  # pragma: no cover - syntactically invalid source
                self._jump(self.cfg.exit)
        else:
            # Simple statements — including nested function/class
            # definitions, which stay opaque here.
            self.emit(stmt)

    def _visit_if(self, stmt: ast.If) -> None:
        self.emit(stmt.test)
        cond_block = self.current
        cond_dead = self.dead
        after = self.cfg.new_block()

        self._start_block()
        if not cond_dead:
            self.cfg.add_edge(cond_block, self.current)
        self.visit_body(stmt.body)
        self._seal_into(after.block_id)

        if stmt.orelse:
            self._start_block()
            if not cond_dead:
                self.cfg.add_edge(cond_block, self.current)
            self.visit_body(stmt.orelse)
            self._seal_into(after.block_id)
        elif not cond_dead:
            self.cfg.add_edge(cond_block, after.block_id)

        self.current = after.block_id
        self.dead = False

    def _visit_while(self, stmt: ast.While) -> None:
        header = self.cfg.new_block()
        self._seal_into(header.block_id)
        self.current = header.block_id
        self.dead = False
        self.emit(stmt.test)
        header_end = self.current
        after = self.cfg.new_block()

        self.loops.append(_LoopFrame(header.block_id, after.block_id))
        self._start_block(header_end)
        self.visit_body(stmt.body)
        self._seal_into(header.block_id)
        self.loops.pop()

        if stmt.orelse:
            self._start_block(header_end)
            self.visit_body(stmt.orelse)
            self._seal_into(after.block_id)
        else:
            self.cfg.add_edge(header_end, after.block_id)
        self.current = after.block_id
        self.dead = False

    def _visit_for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        header = self.cfg.new_block()
        self._seal_into(header.block_id)
        self.current = header.block_id
        self.dead = False
        # The loop header entry is the For node itself: transfer
        # functions model the iterable evaluation + target binding,
        # rules inspect ``stmt.iter`` with this block's entry state.
        self.emit(stmt)
        header_end = self.current
        after = self.cfg.new_block()

        self.loops.append(_LoopFrame(header.block_id, after.block_id))
        self._start_block(header_end)
        self.visit_body(stmt.body)
        self._seal_into(header.block_id)
        self.loops.pop()

        if stmt.orelse:
            self._start_block(header_end)
            self.visit_body(stmt.orelse)
            self._seal_into(after.block_id)
        else:
            self.cfg.add_edge(header_end, after.block_id)
        self.current = after.block_id
        self.dead = False

    def _visit_try(self, stmt: ast.Try) -> None:
        handler_entries: List[int] = [
            self.cfg.new_block().block_id for _ in stmt.handlers
        ]
        after = self.cfg.new_block()

        if handler_entries:
            self.handlers.append(handler_entries)
        self.visit_body(stmt.body)
        if handler_entries:
            self.handlers.pop()
        body_end = self.current
        body_dead = self.dead

        # else runs only when the body completed normally.
        if stmt.orelse:
            self._start_block()
            if not body_dead:
                self.cfg.add_edge(body_end, self.current)
            self.visit_body(stmt.orelse)
            body_end = self.current
            body_dead = self.dead
        if not body_dead:
            self.cfg.add_edge(body_end, after.block_id)

        for handler, entry in zip(stmt.handlers, handler_entries):
            self.current = entry
            self.dead = False
            self.visit_body(handler.body)
            self._seal_into(after.block_id)

        self.current = after.block_id
        self.dead = False

        # finally: straight-line code after the merge (approximate —
        # exceptional exits through finally are not modelled; the
        # may-analyses here only lose extra widening, never soundness
        # on the normal paths they report on).
        if stmt.finalbody:
            self.visit_body(stmt.finalbody)

    def _visit_with(self, stmt: Union[ast.With, ast.AsyncWith]) -> None:
        for item in stmt.items:
            self.emit(item.context_expr)
        self.visit_body(stmt.body)

    def _visit_match(self, stmt: ast.Match) -> None:
        self.emit(stmt.subject)
        subject_block = self.current
        subject_dead = self.dead
        after = self.cfg.new_block()
        for case in stmt.cases:
            self._start_block()
            if not subject_dead:
                self.cfg.add_edge(subject_block, self.current)
            if case.guard is not None:
                self.emit(case.guard)
            self.visit_body(case.body)
            self._seal_into(after.block_id)
        # No case may match.
        if not subject_dead:
            self.cfg.add_edge(subject_block, after.block_id)
        self.current = after.block_id
        self.dead = False


def build_cfg(fn: FunctionNode) -> CFG:
    """Build the CFG of one ``def`` / ``async def`` body."""
    return _Builder().build(fn)


def iter_child_expressions(entry: CFGEntry) -> List[ast.AST]:
    """All AST nodes of one CFG entry, *excluding* nested function,
    lambda and class bodies (those have their own CFGs).

    For loop headers (``ast.For`` entries) only the iterable is walked —
    the body statements live in their own blocks.
    """
    roots: List[ast.AST]
    if isinstance(entry, (ast.For, ast.AsyncFor)):
        roots = [entry.target, entry.iter]
    else:
        roots = [entry]
    out: List[ast.AST] = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            # Opaque: nested scopes are analysed separately. (A lambda's
            # default expressions do evaluate here, but defaults inside
            # emission paths are rare enough to ignore.)
            out.append(node)
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def iter_functions(tree: ast.Module) -> List[Tuple[str, FunctionNode]]:
    """Every function in a module as ``(qualname, node)``, nested ones
    included. Deterministic: syntactic order."""
    out: List[Tuple[str, FunctionNode]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                # The prefix only changes at def/class boundaries, so
                # plain recursion finds defs under loops, withs, tries…
                walk(child, prefix)

    walk(tree, "")
    return out
