import dataclasses
import pathlib
import random

import pytest

from conftest import PROGRAMS, load_program, load_source
from progen import gen_program
from mactor import (
    ParseError,
    ResolutionError,
    explore_all,
    initial_config,
    parse_program,
    pretty_print,
    run,
)
from mactor.parser import MAX_NESTING
from mactor.syntax import (
    Assign,
    BinOp,
    BoolLit,
    BOOL,
    FutType,
    GetStmt,
    IntLit,
    NewActor,
    Program,
    Var,
    VarDecl,
)


MINIMAL = "interface I { Bool m(Int x); } class C implements I { Bool m(Int x) { return true; } } { }"


def test_listing_bank_shape():
    p = load_program("listing_bank")
    assert [i.name for i in p.interfaces] == ["IEmployee", "IAccount"]
    assert [c.name for c in p.classes] == ["Account", "Employee"]


def test_listing_bank_sync_label_placement():
    p = load_program("listing_bank")
    employee = next(i for i in p.interfaces if i.name == "IEmployee")
    sigs = {s.name: s for s in employee.signatures}
    withdraw = sigs["withdraw"]
    assert [p.name for p in withdraw.params] == ["accNumber", "amount"]
    assert withdraw.param_labels == ("a", None)
    assert sigs["transfer"].param_labels == ("a", "a", None)
    assert sigs["createAcc"].param_labels == ("c", None)
    assert sigs["check"].param_labels == ("a",)
    # the class carries the same labels on its method definitions
    cls = next(c for c in p.classes if c.name == "Employee")
    body_sigs = {m.sig.name: m.sig for m in cls.methods}
    assert body_sigs["withdraw"].param_labels == ("a", None)


def test_minimal_program():
    p = parse_program(
        "interface I { } class C implements I { } { Bool x; x = true; }"
    )
    assert p.interfaces[0].signatures == ()
    assert p.main_vars == (VarDecl(BOOL, "x"),)
    assert p.main_body == (Assign("x", BoolLit(True)),)


def test_nodes_are_frozen_and_built_by_position_or_keyword():
    node = BinOp("+", Var("x"), IntLit(1))
    assert node == BinOp(op="+", left=Var(name="x"), right=IntLit(value=1))
    assert hash(node) == hash(BinOp("+", Var("x"), IntLit(1))) and node != BinOp("-", Var("x"), IntLit(1))
    assert repr(node) == "BinOp(op='+', left=Var(name='x'), right=IntLit(value=1))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.op = "-"
    with pytest.raises(TypeError):
        BinOp("+", Var("x"))


def test_undeclared_interface_named_in_error():
    with pytest.raises(ResolutionError, match="J"):
        parse_program("class C implements J { } { }")


def test_parse_error_position_and_rendering():
    src = "interface I {\n  Bool m(; \n}\n{ }"
    with pytest.raises(ParseError) as err:
        parse_program(src, filename="broken.mac")
    assert err.value.line == 2
    assert err.value.col == 10
    assert str(err.value).startswith("broken.mac:2:10:")


# (source, line, col, message): columns count characters from 1, a tab is
# one column, "\r\n" is one line break, and end of input sits just past
# the last character.
ERROR_POSITIONS = [
    ("{ }\n// a comment # here\n#", 3, 1, "unexpected character '#'"),
    ("{ Int x; // set x\n  x = 1; // then # \n  x = 2 # 3; }", 3, 9, "unexpected character '#'"),
    ("{ Int x;\tx = 1;\t@ }", 1, 17, "unexpected character '@'"),
    ("{\r\n  Int x;\r\n  x$ = 1;\r\n}", 3, 4, "unexpected character '$'"),
    ("{ Int x;\r x = 1; % }", 1, 18, "unexpected character '%'"),
    ("{ Int x; x = 1; // no closing brace", 1, 36, "expected an expression, found 'eof'"),
    ("", 1, 1, "expected '{', found 'eof'"),
    ("// nothing here\n", 2, 1, "expected '{', found 'eof'"),
    ("{ Int x; x = 12ab; }", 1, 16, "expected ';', found 'ab'"),
    ("{ Int x; x = 1 * 2; }", 1, 16, "unexpected character '*'"),
    ("{ Int x;\n x = 1;\x00 }", 2, 8, "unexpected character '\\x00'"),
    ("{ Int x; x = 1.get; }", 1, 15, "expected ';', found '.'"),
    ("{ Int x; x = ", 1, 14, "expected an expression, found 'eof'"),
    # input ending where the parser looks one or two tokens ahead
    ("{ x.", 1, 5, "expected method name, found 'eof'"),
    ("{ Int x; x.get", 1, 15, "expected ';', found 'eof'"),
    ("{ I", 1, 4, "expected a statement"),
]


@pytest.mark.parametrize("source,line,col,message", ERROR_POSITIONS)
def test_parse_error_positions(source, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.line, err.value.col, err.value.message) == (line, col, message)


@pytest.mark.parametrize(
    "source,col,char",
    [
        ("{ Int x; x = \u0663\u0664; }", 14, "\u0663"),  # Arabic-Indic digits
        ("{ Int\u00a0x; }", 6, "\u00a0"),  # no-break space
        ("{ Int x;\u2028}", 9, "\u2028"),  # line separator
    ],
)
def test_non_ascii_digits_and_spaces_are_unexpected(source, col, char):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.line, err.value.col, err.value.message) == (1, col, f"unexpected character {char!r}")


# Tokens keep no offset; an error finds its line and column again.  These
# check that against positions counted here, on every bundled program.
PROGRAM_NAMES = sorted(path.stem for path in PROGRAMS.glob("*.mac"))


def _position(prefix: str) -> tuple[int, int]:
    """Line and column of the character just past ``prefix``."""
    lines = prefix.split("\n")
    return len(lines), len(lines[-1]) + 1


def _outside_comments(source: str) -> list[int]:
    """Offsets where an inserted character stays outside every comment:
    not between the two slashes of ``//``, nor after them on their line."""
    inside, start = set(), 0
    for line in source.split("\n"):
        slashes = line.find("//")
        if slashes >= 0:
            inside.update(range(start + slashes + 1, start + len(line) + 1))
        start += len(line) + 1
    return [i for i in range(len(source) + 1) if i not in inside]


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_error_sits_at_an_inserted_character(name):
    source = load_source(name)
    offsets = _outside_comments(source)
    for i in random.Random(name).sample(offsets, min(len(offsets), 60)):
        with pytest.raises(ParseError) as err:
            parse_program(source[:i] + "#" + source[i:])
        assert (err.value.line, err.value.col) == _position(source[:i])
        assert err.value.message == "unexpected character '#'"


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_error_sits_past_the_end_of_a_truncated_program(name):
    source = load_source(name)
    outside = set(_outside_comments(source))
    # a token ends where whitespace follows a character outside a comment
    ends = [
        i
        for i in range(1, len(source.rstrip()))
        if source[i].isspace() and not source[i - 1].isspace() and i in outside
    ]
    for i in random.Random(name).sample(ends, min(len(ends), 60)):
        with pytest.raises(ParseError) as err:
            parse_program(source[:i])
        assert (err.value.line, err.value.col) == _position(source[:i])
        # "x" alone cannot start a declaration or an assignment
        assert err.value.message.endswith("found 'eof'") or err.value.message == "expected a statement"


# ---- nesting


def _nested(ifs: int, parens: int, futs: int = 0) -> str:
    """Main's block declaring a ``Fut`` type nested ``futs`` deep, then
    ``ifs`` ifs nested one a line around ``x = 1 + (1 + ...)`` with
    ``parens`` parentheses.  The block's brace is the first bracket."""
    return (
        "{ Int x; " + "Fut<" * futs + "Int" + ">" * futs + " f;\n"
        + "if x == 0 {\n" * ifs
        + "x = " + "1 + (" * parens + "1" + ")" * parens + ";\n"
        + "} else { }\n" * ifs
        + "}\n"
    )


def test_a_program_nested_to_the_limit_works_in_every_layer():
    program = parse_program(_nested(ifs=49, parens=MAX_NESTING - 50, futs=MAX_NESTING - 1))
    assert parse_program(pretty_print(program)) == program
    assert hash(program) == hash(parse_program(pretty_print(program)))
    final, _ = run(initial_config(program))
    assert final.main_env()["x"] == MAX_NESTING - 49
    report = explore_all(initial_config(program), 10_000)
    assert report.ok and not report.faults and len(report.terminals) == 1


@pytest.mark.parametrize(
    "source, line, col",
    [
        # the last parenthesis, on the line after the ifs
        (_nested(ifs=49, parens=MAX_NESTING - 49), 51, 4 + 5 * (MAX_NESTING - 49)),
        # the brace of the last if
        (_nested(ifs=MAX_NESTING, parens=0), MAX_NESTING + 1, 11),
        # the last '<' of the type
        (_nested(ifs=0, parens=0, futs=MAX_NESTING), 1, 9 + 4 * MAX_NESTING),
    ],
    ids=["parentheses", "blocks", "types"],
)
def test_one_bracket_past_the_limit_is_a_parse_error(source, line, col):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == f"brackets nested more than {MAX_NESTING} deep"


def _chain(ifs: int, terms: int, tail: str = " + 1") -> str:
    """Main's block with ``ifs`` ifs nested one a line around
    ``x = 1 + 1 + ...`` with ``terms`` operands, or ``f`` then
    ``terms - 1`` times ``tail``: a tree that deepens with no bracket."""
    head = "x = 1" if tail == " + 1" else "b = f"
    return (
        "{ Int x; Bool b; Fut<Int> f;\n"
        + "if x == 0 {\n" * ifs
        + head + tail * (terms - 1) + ";\n"
        + "} else { }\n" * ifs
        + "}\n"
    )


def test_an_operator_chain_is_nested_like_brackets():
    # pretty_print writes each operand that is not atomic in parentheses,
    # so a chain of n operators inside b brackets prints b + n - 1 deep:
    # at the limit it works in every layer, and one more operator is an
    # error at that operator
    at_limit = parse_program(_chain(ifs=49, terms=MAX_NESTING - 48))
    assert parse_program(pretty_print(at_limit)) == at_limit
    final, _ = run(initial_config(at_limit))
    assert final.main_env()["x"] == MAX_NESTING - 48
    report = explore_all(initial_config(at_limit), 10_000)
    assert report.ok and not report.faults and len(report.terminals) == 1
    with pytest.raises(ParseError) as err:
        parse_program(_chain(ifs=49, terms=MAX_NESTING - 47))
    assert (err.value.line, err.value.col) == (51, 7 + 4 * (MAX_NESTING - 49))
    assert err.value.message == f"expression nested more than {MAX_NESTING} deep"


@pytest.mark.parametrize(
    "source, col",
    [
        # the operator that deepens the sum one level too far
        (_chain(ifs=0, terms=MAX_NESTING + 2), 7 + 4 * MAX_NESTING),
        (_chain(ifs=0, terms=1_000), 7 + 4 * MAX_NESTING),
        # the "?" that tests a test one level too deep
        (_chain(ifs=0, terms=MAX_NESTING + 2, tail="?"), 6 + MAX_NESTING),
        (_chain(ifs=0, terms=1_000, tail="?"), 6 + MAX_NESTING),
    ],
    ids=["sum", "long sum", "tests", "long tests"],
)
def test_one_level_past_the_limit_is_a_parse_error(source, col):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert (err.value.line, err.value.col) == (2, col)
    assert err.value.message == f"expression nested more than {MAX_NESTING} deep"


def test_whatever_parses_prints_and_parses_again():
    # random expressions near the limit, inside nested ifs (a call may
    # only be a whole right-hand side, so there is none): an accepted
    # program's printed form parses to the same tree
    rng = random.Random(5)

    def expr(depth: int) -> str:
        if depth <= 0 or rng.random() < 0.1:
            return rng.choice(["1", "x", "true", "this", "null", "f"])
        e, a = expr(depth - 1), rng.random() < 0.5
        return rng.choice([
            e + " + 1" if a else "1 - " + e,
            "(" + e + ")",
            e + "?",
            e + " == 1" if a else "1 < (" + e + ")",
            e + " && true" if a else "true && " + e,
        ])

    accepted = 0
    for _ in range(1_000):
        ifs = rng.randrange(MAX_NESTING)
        statement = rng.choice(["y = {};", "if {} {{ }} else {{ }}", "({}).get;"])
        source = (
            "{ Int x; Int y; Fut<Int> f;\n"
            + "if true {\n" * ifs
            + statement.format(expr(rng.randrange(1, 140))) + "\n"
            + "} else { }\n" * ifs
            + "}\n"
        )
        try:
            program = parse_program(source)
        except (ParseError, ResolutionError):
            continue
        assert parse_program(pretty_print(program)) == program
        accepted += 1
    assert accepted > 150, accepted


def test_new_actor_rejected_on_interface_accepted_on_class():
    with pytest.raises(ResolutionError, match="I"):
        parse_program(MINIMAL.replace("{ }", "{ Actor<I> a; a = new actor I(); }"))
    p = parse_program(MINIMAL.replace("{ }", "{ Actor<I> a; a = new actor C(); }"))
    assert isinstance(p.main_body[0].value, NewActor)


def test_new_without_parens_normalizes_to_empty_args():
    with_parens = parse_program(MINIMAL.replace("{ }", "{ I o; o = new C(); }"))
    without = parse_program(MINIMAL.replace("{ }", "{ I o; o = new C; }"))
    assert with_parens.main_body == without.main_body
    assert with_parens.main_body[0].value.args == ()


def test_duplicate_names_rejected():
    with pytest.raises(ResolutionError, match="duplicate interface"):
        parse_program("interface I { } interface I { } class C implements I { } { }")
    with pytest.raises(ResolutionError, match="duplicate method"):
        parse_program(
            "interface I { Bool m(); Bool m(); } "
            "class C implements I { Bool m() { return true; } } { }"
        )


def test_missing_interface_method_rejected():
    with pytest.raises(ResolutionError, match="missing method 'm'"):
        parse_program("interface I { Bool m(); } class C implements I { } { }")


def test_signature_mismatch_with_interface_rejected():
    # label placement is part of the signature contract
    with pytest.raises(ResolutionError, match="does not match"):
        parse_program(
            "interface I { Bool m(sync<a> Int x); } "
            "class C implements I { Bool m(Int x) { return true; } } { }"
        )


def test_method_must_end_with_return():
    with pytest.raises(ResolutionError, match="must end with a return"):
        parse_program(
            "interface I { Bool m(); } "
            "class C implements I { Bool m() { Bool x; x = true; } } { }"
        )


def test_return_only_in_final_position():
    with pytest.raises(ResolutionError, match="before the final"):
        parse_program(
            "interface I { Bool m(); } "
            "class C implements I { Bool m() { if true { return true; } else { } return false; } } { }"
        )
    with pytest.raises(ResolutionError, match="main"):
        parse_program(MINIMAL.replace("{ }", "{ return true; }"))


def test_calls_only_as_assignment_rhs():
    with pytest.raises(ResolutionError, match="right-hand"):
        parse_program(MINIMAL.replace("{ }", "{ I o; Bool b; o = new C(); b = o.m(1) && true; }"))
    with pytest.raises(ResolutionError, match="right-hand"):
        parse_program(MINIMAL.replace("{ }", "{ I o; o = new C(); while o.m(1) { } }"))


def test_undeclared_variable_rejected():
    with pytest.raises(ResolutionError, match="undeclared variable 'y'"):
        parse_program(MINIMAL.replace("{ }", "{ Bool x; x = y; }"))


def test_this_not_available_in_main():
    with pytest.raises(ResolutionError, match="this"):
        parse_program(MINIMAL.replace("{ }", "{ I o; o = this; }"))


def test_constructor_arity_checked():
    with pytest.raises(ResolutionError, match="argument"):
        parse_program(MINIMAL.replace("{ }", "{ I o; o = new C(1); }"))


def test_unknown_method_and_bad_arity_rejected():
    with pytest.raises(ResolutionError, match="undeclared method"):
        parse_program(MINIMAL.replace("{ }", "{ I o; Bool b; o = new C(); b = o.nope(); }"))
    with pytest.raises(ResolutionError, match="argument"):
        parse_program(MINIMAL.replace("{ }", "{ I o; Bool b; o = new C(); b = o.m(1, 2); }"))


def test_get_cannot_be_assigned():
    with pytest.raises(ParseError):
        parse_program(MINIMAL.replace("{ }", "{ Fut<Bool> f; Bool x; x = f.get; }"))


def test_reserved_names_rejected():
    with pytest.raises(ResolutionError, match="reserved"):
        parse_program(MINIMAL.replace("{ }", "{ Bool dest; }"))


def _in_main(block: str) -> str:
    return MINIMAL.replace("{ }", block)


def _in_method(body: str) -> str:
    return f"interface I {{ Bool m(Int x); }} class C implements I {{ Bool m(Int x) {{ {body} }} }} {{ }}"


# One row per diagnostic of the resolver, with its exact text, then programs
# holding two errors, which pin the one that is reported.
RESOLUTION_ERRORS = {
    "duplicate-interface": (
        "interface I { } interface I { } { }",
        "duplicate interface name 'I'",
    ),
    "duplicate-class": (
        "interface I { } class C implements I { } class C implements I { } { }",
        "duplicate class name 'C'",
    ),
    "interface-and-class": (
        "interface I { } class I implements I { } { }",
        "'I' is declared both as an interface and a class",
    ),
    "actor-of-undeclared-interface": (
        "{ Actor<J> a; }",
        "undeclared interface 'J' in main",
    ),
    "class-used-as-type": (
        _in_main("{ C c; }"),
        "class name 'C' used as a type in main",
    ),
    "undeclared-interface-type": (
        "{ Fut<J> f; }",
        "undeclared interface 'J' in main",
    ),
    "reserved-parameter": (
        "interface I { Bool m(Int dest); } { }",
        "reserved name 'dest' declared as parameter of interface 'I'",
    ),
    "duplicate-parameter": (
        "interface I { Bool m(Int x, Bool x); } { }",
        "duplicate parameter 'x' in interface 'I'",
    ),
    "duplicate-interface-method": (
        "interface I { Bool m(); Int m(Int y); } { }",
        "duplicate method 'm' in interface 'I'",
    ),
    "implements-undeclared": (
        "class C implements J { } { }",
        "class 'C' implements undeclared interface 'J'",
    ),
    "reserved-field": (
        "interface I { } class C implements I { Int myactor; } { }",
        "reserved name 'myactor' declared as field of class 'C'",
    ),
    "duplicate-field": (
        "interface I { } class C(Int x) implements I { Bool x; } { }",
        "duplicate field 'x' in class 'C'",
    ),
    "duplicate-class-method": (
        "interface I { } class C implements I { Bool m() { return true; } Bool m() { return true; } } { }",
        "duplicate method 'm' in class 'C'",
    ),
    "missing-interface-method": (
        "interface I { Bool m(); } class C implements I { } { }",
        "class 'C' is missing method 'm' required by interface 'I'",
    ),
    "signature-mismatch": (
        "interface I { Bool m(sync<a> Int x); } class C implements I { Bool m(Int x) { return true; } } { }",
        "method 'm' of class 'C' does not match the signature declared in interface 'I'",
    ),
    "reserved-local": (
        _in_method("Int dest; return true;"),
        "reserved name 'dest' declared as local of method 'C.m'",
    ),
    "local-shadows-parameter": (
        _in_method("Bool x; return true;"),
        "duplicate local 'x' in method 'C.m'",
    ),
    "no-final-return": (
        _in_method("x = 1;"),
        "method 'C.m' must end with a return statement",
    ),
    "empty-method-body": (
        _in_method(""),
        "method 'C.m' must end with a return statement",
    ),
    "early-return": (
        _in_method("while true { return false; } return true;"),
        "method 'C.m' has a return before the final statement",
    ),
    "reserved-main-variable": (
        _in_main("{ Bool dest; }"),
        "reserved name 'dest' declared as main variable",
    ),
    "duplicate-main-variable": (
        _in_main("{ Int x; Bool x; }"),
        "duplicate variable 'x' in main",
    ),
    "return-in-main": (
        _in_main("{ Bool b; if true { return b; } else { } }"),
        "return is not allowed in the main block",
    ),
    "assignment-to-undeclared": (
        _in_main("{ x = 1; }"),
        "assignment to undeclared variable 'x' in main",
    ),
    "new-on-interface": (
        _in_main("{ I o; o = new I(); }"),
        "'new' on an interface name 'I' in main",
    ),
    "new-on-undeclared": (
        _in_main("{ I o; o = new actor D(); }"),
        "'new' on undeclared name 'D' in main",
    ),
    "constructor-arity": (
        _in_main("{ I o; o = new C(1); }"),
        "constructor of 'C' takes 0 argument(s), got 1 in main",
    ),
    "undeclared-method": (
        _in_main("{ I o; Bool b; b = o.nope(); }"),
        "call to undeclared method 'nope' in main",
    ),
    "method-arity": (
        _in_main("{ I o; Fut<Bool> f; f = o!m(1, 2); }"),
        "no method 'm' takes 2 argument(s) in main",
    ),
    "call-in-guard": (
        _in_main("{ I o; while o.m(1) { } }"),
        "calls and 'new' may appear only as the whole right-hand side of an assignment (main)",
    ),
    "new-in-operand": (
        _in_method("Bool b; b = (new C()) == null; return b;"),
        "calls and 'new' may appear only as the whole right-hand side of an assignment (method 'C.m')",
    ),
    "undeclared-variable": (
        _in_main("{ Bool b; b = b && y; }"),
        "undeclared variable 'y' in main",
    ),
    "this-in-main": (
        _in_main("{ I o; o = this; }"),
        "'this' is not available in the main block",
    ),
    # -- precedence
    "undeclared-variable-before-early-return": (
        _in_method("if y { return true; } else { } return false;"),
        "undeclared variable 'y' in method 'C.m'",
    ),
    "undeclared-variable-after-early-return": (
        _in_method("if true { return true; } else { } x = y; return false;"),
        "undeclared variable 'y' in method 'C.m'",
    ),
    "no-final-return-and-early-return": (
        _in_method("if true { return true; } else { }"),
        "method 'C.m' must end with a return statement",
    ),
    "return-in-main-after-undeclared-variable": (
        _in_main("{ x = 1; return true; }"),
        "return is not allowed in the main block",
    ),
    "bad-signature-before-duplicate-method": (
        "interface I { } class C implements I { Bool m(Int x, Int x) { return true; } "
        "Bool m() { return true; } } { }",
        "duplicate parameter 'x' in class 'C'",
    ),
    "duplicate-method-before-bad-signature": (
        "interface I { } class C implements I { Bool m() { return true; } Bool m() { return true; } "
        "Bool k(Int dest) { return true; } } { }",
        "duplicate method 'm' in class 'C'",
    ),
    "implements-before-fields": (
        "class C implements J { Int dest; } { }",
        "class 'C' implements undeclared interface 'J'",
    ),
    "fields-before-signatures": (
        "interface I { } class C(J x) implements I { Bool m(Int dest) { return true; } } { }",
        "undeclared interface 'J' in class 'C'",
    ),
    "conformance-before-bodies": (
        "interface I { Bool m(); Bool k(); } class C implements I { Bool m() { zz = 1; return true; } } { }",
        "class 'C' is missing method 'k' required by interface 'I'",
    ),
    "interfaces-before-classes": (
        "interface I { Bool m(Int x, Int x); } class C implements I { Int dest; } { }",
        "duplicate parameter 'x' in interface 'I'",
    ),
    "class-bodies-before-main": (
        _in_method("x = y; return true;").replace("{ }", "{ z = 1; }"),
        "undeclared variable 'y' in method 'C.m'",
    ),
}


@pytest.mark.parametrize("source, message", RESOLUTION_ERRORS.values(), ids=RESOLUTION_ERRORS.keys())
def test_resolution_error_messages(source, message):
    with pytest.raises(ResolutionError) as err:
        parse_program(source)
    assert str(err.value) == message


def test_comments_and_whitespace_insensitivity():
    p = parse_program(
        "interface I{Bool m(Int x);}// trailing\nclass C implements I{Bool m(Int x){return true;}}{}"
    )
    assert isinstance(p, Program)
    # a comment may hold any character
    p = parse_program("{ Int x; // caf\u00e9 \u0663\u00a0\n x = 3; }")
    assert p.main_body == (Assign("x", IntLit(3)),)


# Characters the lexical grammar uses, so most mutants get past the lexer.
FUZZ_ALPHABET = "{}()<>,;=.!?+-&/_ \t\r\n09aeiktxACIF"


def test_mutated_programs_raise_only_parse_or_resolution_errors():
    # one character deleted, inserted or replaced: a malformed source is
    # reported, never met with an IndexError or the like
    rng = random.Random(17)
    for seed in range(200):
        source = pretty_print(gen_program(random.Random(seed)))
        for _ in range(10):
            i = rng.randrange(len(source) + 1)
            op = rng.randrange(3)
            ch = rng.choice(FUZZ_ALPHABET)
            if op == 0:
                mutant = source[:i] + source[i + 1 :]
            elif op == 1:
                mutant = source[:i] + ch + source[i:]
            else:
                mutant = source[:i] + ch + source[i + 1 :]
            try:
                parse_program(mutant)
            except (ParseError, ResolutionError):
                pass


# ---- pretty printer


def test_round_trip_fixtures():
    for name in ("listing_bank", "employee_bank", "bank_small", "worked_queue", "loop"):
        p = parse_program(load_source(name))
        assert parse_program(pretty_print(p)) == p


def test_round_trip_perfbench_bank_classes():
    # the largest real input: the explore-bank classes plus a small main block
    classes = (pathlib.Path(__file__).parents[1] / "perfbench" / "bank_classes.mac").read_text()
    main = (
        "{ Actor<ITeller> bank; Fut<Int> g; Fut<Bool> w0; Fut<Int> c1;\n"
        "  bank = new actor Boss(100, 100); g = bank!grow(2); g.get;\n"
        "  w0 = bank!wd(1, 30); c1 = bank!ck(2); }\n"
    )
    p = parse_program(classes + main)
    assert [c.name for c in p.classes] == ["Boss", "Teller"]
    assert parse_program(pretty_print(p)) == p


def test_round_trip_generated_sample():
    for seed in range(100):
        p = gen_program(random.Random(seed))
        assert parse_program(pretty_print(p)) == p, f"seed {seed}"


def test_sync_labels_survive_round_trip():
    p = load_program("listing_bank")
    again = parse_program(pretty_print(p))
    employee = next(i for i in again.interfaces if i.name == "IEmployee")
    sigs = {s.name: s for s in employee.signatures}
    assert sigs["withdraw"].param_labels == ("a", None)


def test_nested_future_type_prints():
    p = parse_program(MINIMAL.replace("{ }", "{ Fut<Fut<Bool>> f; }"))
    assert p.main_vars[0].type == FutType(FutType(BOOL))
    assert "Fut<Fut<Bool>>" in pretty_print(p)


def test_empty_main_prints_as_braces():
    p = parse_program(MINIMAL)
    assert pretty_print(p).rstrip().endswith("{ }")


def test_get_statement_round_trips():
    src = MINIMAL.replace("{ }", "{ Fut<Bool> f; f.get; }")
    p = parse_program(src)
    assert isinstance(p.main_body[0], GetStmt)
    assert parse_program(pretty_print(p)) == p
