"""Built-in example models used by the reference suite, the demos, and tests.

Two scenarios.  In the service-desk scenario two servers each know one usage
rule about a shared system while a customer knows neither; sharing lets the
customer learn exactly what a server can classify.  The deontic variant adds
an ideal relation marking which transitions count as legitimate ways of
coming to know.  The overlap scenario has two agents with the same one piece
of knowledge but complementary uncertainty, which separates resolution from
round-trip sharing.
"""

from __future__ import annotations

from .kripke import Model

# the two transitions regarded as legitimate in the deontic variant
SERVICE_DESK_IDEAL = (("s1", "s0"), ("s3", "s0"))


# the service desk as `Model` arguments, shared by its plain and deontic forms
_SERVICE_DESK = dict(
    states=("s0", "s1", "s2", "s3", "s4"),
    agents=("a", "b", "c"),
    atoms=("p", "q", "r"),
    rel={
        "a": ({"s0", "s1", "s2"}, {"s3"}, {"s4"}),
        "b": ({"s0", "s3", "s4"}, {"s1"}, {"s2"}),
        "c": ({"s0", "s1", "s2", "s3", "s4"},),
    },
    val={
        "s0": {"p", "q", "r"},
        "s1": {"p", "q"},
        "s2": {"q", "r"},
        "s3": {"p"},
        "s4": set(),
    },
    point="s0",
)


def service_desk() -> Model:
    """Two servers and one customer; the servers partition the rule space."""
    return Model(**_SERVICE_DESK)


def service_desk_deontic() -> Model:
    """The service desk with the two legitimate transitions marked ideal."""
    return Model(**_SERVICE_DESK, ideal=SERVICE_DESK_IDEAL)


def overlap() -> Model:
    """Both agents know p and only p, but disagree on what else might hold."""
    return Model(
        states=("s0", "s1", "s2", "s3"),
        agents=("a", "b"),
        atoms=("p", "q", "r"),
        rel={
            "a": ({"s0", "s1"}, {"s2"}, {"s3"}),
            "b": ({"s0", "s2", "s3"}, {"s1"}),
        },
        val={
            "s0": {"p", "q", "r"},
            "s1": {"p"},
            "s2": {"p", "r"},
            "s3": {"p", "q"},
        },
        point="s0",
    )


PRESETS = {
    "service_desk": service_desk,
    "service_desk_deontic": service_desk_deontic,
    "overlap": overlap,
}
