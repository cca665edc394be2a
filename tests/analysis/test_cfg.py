"""Unit tests for the intra-procedural CFG builder.

Structural assertions are kept property-shaped (edges exist, entries
land in separate blocks, back edges close loops) rather than pinning
exact block ids, so the builder can evolve without rewriting every
test — except where determinism itself is the property under test.
"""

import ast
import textwrap

from repro.analysis.cfg import (
    build_cfg,
    iter_child_expressions,
    iter_functions,
)


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    fns = iter_functions(tree)
    assert fns, "no function in source"
    return build_cfg(fns[0][1])


def _block_of(cfg, pred):
    """The unique block holding an entry matching ``pred``."""
    hits = [
        b
        for b in cfg.blocks.values()
        if any(pred(e) for e in b.entries)
    ]
    assert len(hits) == 1, f"expected one block, got {len(hits)}"
    return hits[0]


def _expr_block(cfg, name):
    """Block holding the expression-statement ``name()``."""
    return _block_of(
        cfg,
        lambda e: isinstance(e, ast.Expr)
        and isinstance(e.value, ast.Call)
        and isinstance(e.value.func, ast.Name)
        and e.value.func.id == name,
    )


def _reachable(cfg, src, dst):
    seen = set()
    stack = [src]
    while stack:
        cur = stack.pop()
        if cur == dst:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(cfg.blocks[cur].succs)
    return False


def test_straight_line_single_block():
    cfg = _cfg(
        """
        def f(x):
            a = x + 1
            b = a * 2
            return b
        """
    )
    block = _block_of(cfg, lambda e: isinstance(e, ast.Return))
    # All three statements share one block; it jumps to exit.
    assert len(block.entries) == 3
    assert cfg.exit in block.succs


def test_if_else_branches_and_merge():
    cfg = _cfg(
        """
        def f(x):
            if x:
                then_side()
            else:
                else_side()
            after()
        """
    )
    test_block = _block_of(
        cfg, lambda e: isinstance(e, ast.Name) and e.id == "x"
    )
    then_block = _expr_block(cfg, "then_side")
    else_block = _expr_block(cfg, "else_side")
    after_block = _expr_block(cfg, "after")
    assert then_block.block_id in test_block.succs
    assert else_block.block_id in test_block.succs
    # Both arms merge before after(); the test does not skip to it.
    assert _reachable(cfg, then_block.block_id, after_block.block_id)
    assert _reachable(cfg, else_block.block_id, after_block.block_id)
    assert after_block.block_id not in test_block.succs


def test_if_without_else_has_fallthrough_edge():
    cfg = _cfg(
        """
        def f(x):
            if x:
                then_side()
            after()
        """
    )
    test_block = _block_of(
        cfg, lambda e: isinstance(e, ast.Name) and e.id == "x"
    )
    after_block = _expr_block(cfg, "after")
    # False path: straight from the test to the join block.
    assert after_block.block_id in test_block.succs


def test_while_loop_back_edge_and_exit():
    cfg = _cfg(
        """
        def f(x):
            while x:
                body()
            after()
        """
    )
    header = _block_of(cfg, lambda e: isinstance(e, ast.Name) and e.id == "x")
    body = _expr_block(cfg, "body")
    after = _expr_block(cfg, "after")
    assert body.block_id in header.succs
    assert after.block_id in header.succs
    # Back edge: the body returns to the header.
    assert _reachable(cfg, body.block_id, header.block_id)


def test_while_orelse_runs_on_normal_exit():
    cfg = _cfg(
        """
        def f(x):
            while x:
                body()
            else:
                done()
            after()
        """
    )
    header = _block_of(cfg, lambda e: isinstance(e, ast.Name) and e.id == "x")
    done = _expr_block(cfg, "done")
    after = _expr_block(cfg, "after")
    assert done.block_id in header.succs
    assert _reachable(cfg, done.block_id, after.block_id)


def test_for_header_entry_is_the_for_node():
    cfg = _cfg(
        """
        def f(xs):
            for x in xs:
                body(x)
            after()
        """
    )
    header = _block_of(cfg, lambda e: isinstance(e, ast.For))
    body = _expr_block(cfg, "body")
    after = _expr_block(cfg, "after")
    # Loop entered and skipped from the header; body loops back.
    assert body.block_id in header.succs
    assert after.block_id in header.succs
    assert _reachable(cfg, body.block_id, header.block_id)
    # The header entry exposes target and iter but not the body.
    nodes = iter_child_expressions(header.entries[0])
    assert any(isinstance(n, ast.Name) and n.id == "xs" for n in nodes)
    assert not any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "body"
        for n in nodes
    )


def test_break_jumps_past_the_loop():
    cfg = _cfg(
        """
        def f(xs):
            for x in xs:
                if x:
                    break
                body(x)
            after()
        """
    )
    brk = _block_of(cfg, lambda e: isinstance(e, ast.Break))
    after = _expr_block(cfg, "after")
    assert after.block_id in brk.succs
    # break does not fall through into the rest of the body.
    body = _expr_block(cfg, "body")
    assert body.block_id not in brk.succs


def test_continue_jumps_to_the_header():
    cfg = _cfg(
        """
        def f(xs):
            for x in xs:
                if x:
                    continue
                body(x)
        """
    )
    header = _block_of(cfg, lambda e: isinstance(e, ast.For))
    cont = _block_of(cfg, lambda e: isinstance(e, ast.Continue))
    assert header.block_id in cont.succs


def test_try_except_handler_edges_from_each_statement():
    cfg = _cfg(
        """
        def f():
            try:
                first()
                second()
            except ValueError:
                handler()
            after()
        """
    )
    first = _expr_block(cfg, "first")
    second = _expr_block(cfg, "second")
    handler = _expr_block(cfg, "handler")
    after = _expr_block(cfg, "after")
    # Every try-body statement may transfer to the handler: the handler
    # entry state joins the state after each one.
    assert handler.block_id in first.succs
    assert handler.block_id in second.succs
    assert _reachable(cfg, handler.block_id, after.block_id)
    assert _reachable(cfg, second.block_id, after.block_id)


def test_try_else_only_after_normal_completion():
    cfg = _cfg(
        """
        def f():
            try:
                body()
            except KeyError:
                handler()
            else:
                success()
            after()
        """
    )
    handler = _expr_block(cfg, "handler")
    success = _expr_block(cfg, "success")
    # The handler must not flow into the else branch.
    assert not _reachable(cfg, handler.block_id, success.block_id)
    assert _reachable(cfg, success.block_id, _expr_block(cfg, "after").block_id)


def test_finally_runs_after_the_merge():
    cfg = _cfg(
        """
        def f():
            try:
                body()
            except KeyError:
                handler()
            finally:
                cleanup()
        """
    )
    cleanup = _expr_block(cfg, "cleanup")
    assert _reachable(cfg, _expr_block(cfg, "body").block_id, cleanup.block_id)
    assert _reachable(cfg, _expr_block(cfg, "handler").block_id, cleanup.block_id)


def test_with_items_precede_the_body():
    cfg = _cfg(
        """
        def f():
            with ctx() as c:
                body(c)
        """
    )
    ctx = _block_of(
        cfg,
        lambda e: isinstance(e, ast.Call)
        and isinstance(e.func, ast.Name)
        and e.func.id == "ctx",
    )
    body = _expr_block(cfg, "body")
    assert _reachable(cfg, ctx.block_id, body.block_id)


def test_match_cases_branch_from_the_subject():
    cfg = _cfg(
        """
        def f(x):
            match x:
                case 1:
                    one()
                case _:
                    other()
            after()
        """
    )
    subject = _block_of(cfg, lambda e: isinstance(e, ast.Name) and e.id == "x")
    one = _expr_block(cfg, "one")
    other = _expr_block(cfg, "other")
    after = _expr_block(cfg, "after")
    assert one.block_id in subject.succs
    assert other.block_id in subject.succs
    # No-case-matches fallthrough edge.
    assert after.block_id in subject.succs


def test_code_after_return_is_unreachable_but_visited():
    cfg = _cfg(
        """
        def f():
            return 1
            dead()
        """
    )
    dead = _expr_block(cfg, "dead")
    assert not _reachable(cfg, cfg.entry, dead.block_id)
    # rpo still includes it (appended after the reachable blocks) so
    # analyses replay it with a bottom entry state.
    order = cfg.rpo()
    assert dead.block_id in order
    assert set(order) == set(cfg.blocks)
    assert order[0] == cfg.entry


def test_nested_defs_and_lambdas_are_opaque():
    cfg = _cfg(
        """
        def f():
            def inner():
                inner_only()
            g = lambda: lambda_only()
            class C:
                def m(self):
                    method_only()
            outer()
        """
    )
    # None of the nested bodies leak entries into the outer CFG.
    for name in ("inner_only", "lambda_only", "method_only"):
        assert not any(
            any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == name
                for e in b.entries
                for n in iter_child_expressions(e)
            )
            for b in cfg.blocks.values()
        ), name
    _expr_block(cfg, "outer")  # the outer statement is present


def test_async_def_builds_like_sync():
    cfg = _cfg(
        """
        async def f(xs):
            async for x in xs:
                await body(x)
            async with ctx():
                await tail()
        """
    )
    header = _block_of(cfg, lambda e: isinstance(e, ast.AsyncFor))
    body = _block_of(
        cfg,
        lambda e: isinstance(e, ast.Expr)
        and isinstance(e.value, ast.Await)
        and isinstance(e.value.value, ast.Call)
        and isinstance(e.value.value.func, ast.Name)
        and e.value.value.func.id == "body",
    )
    assert body.block_id in header.succs


def test_rpo_is_deterministic_and_starts_at_entry():
    source = """
        def f(x):
            if x:
                a()
            else:
                b()
            for i in x:
                c(i)
    """
    orders = {tuple(_cfg(source).rpo()) for _ in range(5)}
    assert len(orders) == 1
    order = next(iter(orders))
    assert order[0] == 0  # entry block is always id 0


def test_iter_functions_qualnames_and_classes():
    tree = ast.parse(
        textwrap.dedent(
            """
            def free():
                def nested():
                    pass

            class Outer:
                def method(self):
                    def helper():
                        pass

                class Inner:
                    async def amethod(self):
                        pass
            """
        )
    )
    # Classes, nested or not, prefix the qualname; deterministic
    # syntactic order.
    names = [qual for qual, _ in iter_functions(tree)]
    assert names == [
        "free",
        "free.nested",
        "Outer.method",
        "Outer.method.helper",
        "Outer.Inner.amethod",
    ]
