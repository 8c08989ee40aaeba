import pytest

from horpo.context import OrderingContext
from horpo.problems import ProblemError, parse_problem
from horpo.typeorder import Cmp


def test_precedence_completion(brouwer):
    ctx = OrderingContext.build(
        brouwer.sig, brouwer.sort_order, (("lim", "s"),), (), {"rec": "lex"},
    )
    for f in brouwer.sig.funs:
        assert ctx.statuses[f.name] == ("lex" if f.name == "rec" else "mul")
    assert ctx.prec.cmp("lim", "s") is Cmp.GT
    assert ctx.prec.cmp("s", "rec") is Cmp.INCOMP


def test_build_leaves_app_out(brouwer):
    # case 1c puts applications below every symbol; no table holds `@`
    ctx = OrderingContext.build(brouwer.sig, brouwer.sort_order)
    names = [f.name for f in brouwer.sig.funs]
    assert list(ctx.prec.elements) == names
    assert list(ctx.statuses) == names
    assert list(ctx.acc) == names


SIG = (
    "sort N ;\nfun f : [N, N] -> N ;\nfun g : [N, N] -> N ;\n"
    "fun h : [N] -> N ;\n"
)


@pytest.mark.parametrize(
    "equiv,statuses,message",
    [
        ((("f", "g"), ("g", "h")), {}, "different arities: f, g, h"),
        ((("g", "f"),), {"g": "lex"}, "different statuses: f, g"),
        ((("f", "g"),), {"f": "lex", "g": "lex"}, None),
    ],
    ids=["arities", "statuses", "agree"],
)
def test_prec_class_error_is_the_parser_error(equiv, statuses, message):
    p = parse_problem(SIG)
    error = OrderingContext.build(
        p.sig, p.sort_order, (), equiv, statuses
    ).prec_class_error()
    text = SIG + "".join("prec %s = %s ;\n" % pair for pair in equiv)
    text += "".join("status %s %s ;\n" % item for item in statuses.items())
    if message is None:
        assert error is None
        parse_problem(text)
        return
    assert error == "equivalent symbols with %s" % message
    with pytest.raises(ProblemError) as info:
        parse_problem(text)
    assert str(info.value) == error
