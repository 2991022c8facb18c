"""Independent checks on every tree the program serves."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from common import use_checkout_sources

use_checkout_sources()

from repro.net import net_from_dict  # noqa: E402
from repro.routing.evaluate import evaluate_tree  # noqa: E402
from repro.routing.export import tree_from_dict, tree_signature  # noqa: E402
from repro.routing.tree import RoutingTree  # noqa: E402
from repro.routing.validate import TreeValidationError, validate_tree  # noqa: E402
from repro.tech.technology import Technology  # noqa: E402
from repro.units import feq  # noqa: E402

#: Scalar fields of a served ``evaluation`` compared with the
#: benchmark's own Elmore re-evaluation.
_EVALUATION_FIELDS = ("required_time_at_driver", "driver_load",
                      "buffer_area", "wire_length", "delay")


def check_tree(tree: RoutingTree, evaluation: Dict[str, Any],
               tech: Technology, failures: List[str], what: str
               ) -> Optional[Any]:
    """Validate ``tree`` and compare ``evaluation`` (the program's claim)
    with a fresh ``evaluate_tree``.  Returns the fresh evaluation, or
    None after recording a failure."""
    try:
        validate_tree(tree)
    except TreeValidationError as exc:
        failures.append(f"{what}: invalid tree: {exc}")
        return None
    ours = evaluate_tree(tree, tech)
    for name in _EVALUATION_FIELDS:
        if not feq(getattr(ours, name), float(evaluation[name])):
            failures.append(f"{what}: {name} {evaluation[name]!r} != "
                            f"re-evaluated {getattr(ours, name)!r}")
            return None
    if ours.buffer_count != int(evaluation["buffer_count"]):
        failures.append(f"{what}: buffer_count differs")
        return None
    for index, arrival in ours.sink_arrivals.items():
        if not feq(arrival, float(evaluation["sink_arrivals"][str(index)])):
            failures.append(f"{what}: sink {index} arrival differs")
            return None
    return ours


def check_served(net: Dict[str, Any], result: Dict[str, Any],
                 tech: Technology, failures: List[str], what: str,
                 frame: Optional[Dict[str, Any]] = None
                 ) -> Optional[Dict[str, Any]]:
    """Check one ``/v1/optimize`` result for request net ``net``.

    Returns ``{"signature", "evaluation"}``, where the signature is taken
    in the coordinate frame of ``frame`` (a net equivalent to ``net``;
    default ``net`` itself) so translated twins compare with their base.
    """
    request_net = net_from_dict(net)
    tree = tree_from_dict(result["tree"], request_net, tech.buffers)
    if tree_signature(tree) != result["tree_signature"]:
        failures.append(f"{what}: tree_signature does not match its tree")
        return None
    ours = check_tree(tree, result["evaluation"], tech, failures, what)
    if ours is None:
        return None
    signature = result["tree_signature"]
    if frame is not None and frame is not net:
        base_net = net_from_dict(frame)
        offset = (base_net.source.x - request_net.source.x,
                  base_net.source.y - request_net.source.y)
        signature = tree_signature(tree_from_dict(
            result["tree"], base_net, tech.buffers, offset=offset))
    return {"signature": signature, "evaluation": ours}


def check_classes(signatures: Dict[int, List[str]], failures: List[str],
                  what: str) -> None:
    """Every equivalence class (keyed by base net) has one signature."""
    for base, seen in sorted(signatures.items()):
        if len(set(seen)) != 1:
            failures.append(f"{what}: net {base} answered with "
                            f"{len(set(seen))} different trees")
