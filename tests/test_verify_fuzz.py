"""Fuzzing ``graphnorms verify``: any JSON at all must end in a verdict
(exit 0 or 1), an inconclusive guard (2) or a usage error (3), never in an
internal error (4) or a traceback."""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphnorms.certificates import certify_bowtie_cycle, certify_kpm
from graphnorms.cli import main

GENUINE = {
    "bowtie5": certify_bowtie_cycle(5).to_json(),
    "kpm5": certify_kpm(5).to_json(),
}

# names the certificate reader looks for, so dictionaries hit real fields
NAMES = sorted(
    {key for cert in GENUINE.values() for key in cert}
    | {"edges", "entries", "screening_failure", "not_norming", "not_weakly_norming",
       "non-bipartite", "non-eulerian", "odd edge count", "1/2", "-3/4"}
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.just(10**12)
    | st.floats()
    | st.sampled_from(NAMES)
    | st.text(max_size=5)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

FUZZ = settings(
    max_examples=100,
    deadline=1000,
    suppress_health_check=[HealthCheck.too_slow],
)


def verify_exit_code(data) -> int:
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return main(["verify", "-c", path])
    finally:
        os.unlink(path)


@FUZZ
@given(json_values)
def test_verify_arbitrary_json(data):
    assert verify_exit_code(data) in (0, 1, 2, 3)


@st.composite
def positions(draw, node):
    """A position in a JSON document, reached by a walk from the root that
    stops at each level with even odds, so nested fields such as a graph's
    vertex count or one matrix entry come up about as often as top-level
    ones."""
    path = ()
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path += (key,)
        node = node[key]
        if not isinstance(node, (dict, list)) or not node or draw(st.booleans()):
            return path


def replaced(node, path, value):
    """A copy of ``node`` with the value at ``path`` replaced."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = replaced(node[path[0]], path[1:], value)
    return copy


@FUZZ
@given(st.sampled_from(sorted(GENUINE)), st.data())
def test_verify_certificate_with_one_field_replaced(name, data):
    path = data.draw(positions(GENUINE[name]), label="path")
    value = data.draw(json_values, label="value")
    assert verify_exit_code(replaced(GENUINE[name], path, value)) in (0, 1, 2, 3)
