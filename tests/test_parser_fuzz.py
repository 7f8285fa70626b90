"""Fuzzing of the text readers: expansion files, biphoton tables, network
files, pipeline scripts, ``--l`` lists and mode specs.

Valid lines are mutated (a field replaced by a bad value, dropped, or a
field added) and interleaved with blank and comment lines.  A reader may
only raise ValueError (or UsageError for the CLI specs), and a ValueError
names a line that holds content unless it is a whole-file fault.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagnacsim import cli
from sagnacsim import formats as F
from sagnacsim import interferometer as I
from sagnacsim import quantum as Q
from sagnacsim.modes import BeamGeometry

BAD = ("nan", "inf", "1e400", "-1", "171", str(10**12), "abc", "zz=1")

# Faults of a whole file rather than of one of its lines.
WHOLE_FILE = (
    "missing 'hg-expansion v1' header",
    "network defines no stages",
    "exactly one root",
    "contains a cycle",
    "unreachable from the root",
    "routed to more than once",
    "'tree' cannot be combined",
)

FUZZ = settings(max_examples=100, deadline=None)


@st.composite
def mutated(draw, lines):
    """Text of ``lines`` (lists of fields) with one line mutated."""
    target = draw(st.sampled_from(range(len(lines) - 1, -1, -1)))
    out = []
    for i, fields in enumerate(lines):
        fields = list(fields)
        if i == target:
            at = draw(st.sampled_from(range(len(fields) - 1, -1, -1)))  # values first
            bad = draw(st.sampled_from(BAD))
            action = draw(st.sampled_from(("replace", "replace", "drop", "add")))
            if action == "replace":
                # Either the whole field, or one comma-separated part of
                # the value of a key=value field.
                key, eq, value = fields[at].partition("=")
                if eq and draw(st.sampled_from((True, False))):
                    parts = value.split(",")
                    parts[draw(st.integers(0, len(parts) - 1))] = bad
                    fields[at] = key + eq + ",".join(parts)
                else:
                    fields[at] = bad
            elif action == "drop":
                del fields[at]
            else:
                fields.insert(draw(st.integers(0, len(fields))), bad)
        out += draw(st.sampled_from(([], [""], ["# note"], ["   "])))
        out.append(" ".join(fields) + draw(st.sampled_from(("", "  # tail"))))
    return "\n".join(out) + "\n"


def check_numbered(parse, text, must_fail=False):
    """Run ``parse(text)``; a ValueError must name a content line of
    ``text`` or be a whole-file fault, and ``must_fail`` demands one."""
    content = {
        i for i, line in enumerate(text.splitlines(), start=1) if line.split("#", 1)[0].strip()
    }
    try:
        parse(text)
    except ValueError as exc:
        message = str(exc)
        numbered = re.match(r"line (\d+): ", message)
        if numbered:
            assert int(numbered.group(1)) in content, (text, message)
        else:
            assert any(w in message for w in WHOLE_FILE), (text, message)
    else:
        assert not must_fail, text


small_int = st.integers(0, 3).map(str)
amp = st.sampled_from(("0.5", "-0.25", "1", "0", "1e-3"))
angle = st.sampled_from(("0", "0.3", "0.7853981633974483", "1.2", "3.14"))


@FUZZ
@given(st.data())
def test_expansion_faults_are_numbered(data):
    terms = data.draw(st.lists(st.tuples(small_int, small_int, amp, amp), min_size=1, max_size=4))
    lines = [["hg-expansion", "v1", "w0=1"]] + [list(t) for t in terms]
    check_numbered(F.parse_expansion, data.draw(mutated(lines)))


@FUZZ
@given(st.data())
def test_biphoton_table_faults_are_numbered(data):
    terms = data.draw(st.lists(st.tuples(small_int, small_int, small_int, small_int, amp, amp), min_size=1, max_size=4))
    lines = [["biphoton", "v1"]] + [list(t) for t in terms]
    check_numbered(Q.load_biphoton_table, data.draw(mutated(lines)))


@st.composite
def network_lines(draw):
    if draw(st.booleans()):
        return [["tree", draw(st.sampled_from(("1", "2", "3")))]]
    count = draw(st.integers(1, 4))
    lines = [
        ["stage", f"s{i}", f"theta={draw(angle)}", f"phi={draw(angle)}"] for i in range(count)
    ]
    free = [("s0", "A"), ("s0", "B")]
    for child in range(1, count):
        parent, port = free.pop(draw(st.integers(0, len(free) - 1)))
        lines.append(["route", f"{parent}.{port}", "->", f"s{child}"])
        free += [(f"s{child}", "A"), (f"s{child}", "B")]
    return draw(st.permutations(lines))


@FUZZ
@given(st.data())
def test_network_faults_are_numbered(data):
    check_numbered(I.parse_network, data.draw(mutated(data.draw(network_lines()))))


def test_network_route_faults_name_the_route_line():
    text = "stage a theta=1 phi=0\n\n# to nowhere\nroute a.B -> ghost\n"
    with pytest.raises(ValueError, match="^line 4: route to unknown stage 'ghost'$"):
        I.parse_network(text)


PIPELINES = (
    [["source", "hg45"], ["filter"], ["sort", "theta=0.7853981633974483", "phi=0"],
     ["herald", "port=A", "mode=0,0"]],
    [["source", "hg45"], ["filter"], ["compressor", "axis=1.5", "retardance=1.5"], ["sort"],
     ["herald", "port=B", "mode=1,0"]],
    [["source", "hg00"], ["filter"], ["sort", "theta=0.7", "phi=0.1"], ["select", "BB"],
     ["schmidt"], ["pbs-split"]],
)


@FUZZ
@given(st.data())
def test_pipeline_faults_are_numbered(data):
    lines = data.draw(st.sampled_from(PIPELINES))
    text = data.draw(mutated(lines))
    # No pipeline line takes a field more than it has here, nor the key zz.
    fields = [field for _, line in F.numbered_lines(text) for field in line]
    must_fail = "zz=1" in fields or len(fields) > sum(map(len, lines))
    check_numbered(lambda t: cli.run_pipeline_script(t, "fuzz", {}), text, must_fail)


l_chunk = st.one_of(
    st.integers(-5, 5).map(str),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(lambda b: f"{b[0]}..{b[1]}"),
    st.sampled_from(BAD + ("", "1..2..3", "..", "3..", "0..171")),
)


@FUZZ
@given(st.lists(l_chunk, min_size=1, max_size=4).map(",".join))
def test_l_list_raises_only_usage_errors(text):
    try:
        values = cli._parse_l_list(text)
    except cli.UsageError:
        return
    assert 0 < len(values) <= cli.MAX_L_VALUES


spec_field = st.one_of(small_int, st.sampled_from(BAD + ("", "1.5")))


@FUZZ
@given(
    st.sampled_from(("hg:", "lg:", "hg45", "hg45m", "fiber-demo", "zz:")),
    st.lists(spec_field, max_size=3).map(",".join),
)
def test_mode_specs_raise_only_value_or_usage_errors(prefix, rest):
    spec = prefix + rest if prefix.endswith(":") else prefix
    try:
        cli.parse_mode_spec(spec, BeamGeometry(1.0))
    except (ValueError, cli.UsageError):
        pass
