"""Data supply/consumption analysis — the paper's Figure 8, live.

Fig. 8 of the paper draws the supplier -> consumer relationships among
the devices ("Each arrow in the figure indicates one pair of supplier
and consumer").  Rather than hard-coding that figure, this module
*extracts* it from a run: suppliers are observed from the sniffer log
(who transmitted which data type), consumers from the boards' actual
subscriptions.  The result is a ``networkx.DiGraph`` whose edges are
(supplier, consumer, data type) triples, plus a text rendering — so a
refactor that silently breaks a control loop's data supply shows up as
a missing edge.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.net.packet import DataType

if TYPE_CHECKING:  # networkx is imported on first extraction
    import networkx as nx


def extract_dataflow(system) -> nx.DiGraph:
    """Build the supplier->consumer graph from a (run) system.

    Nodes carry a ``kind`` attribute (``bt-sensor`` / ``board``); edges
    carry ``data_type`` and ``frames`` (how many frames of that type the
    supplier actually put on the air during the run).
    """
    import networkx as nx

    if system.sniffer is None:
        raise ValueError("dataflow extraction needs a networked run")

    supplied: Dict[Tuple[str, DataType], int] = Counter()
    for record in system.sniffer.records:
        supplied[(record.sender, record.packet.data_type)] += 1

    subscriptions: Dict[str, Set[DataType]] = {}
    for board in system.boards:
        subscriptions[board.device_id] = set(
            board.mote.bus._subscribers)

    graph = nx.DiGraph()
    for node in system.bt_nodes:
        graph.add_node(node.device_id, kind="bt-sensor")
    for board in system.boards:
        graph.add_node(board.device_id, kind="board")

    for (sender, data_type), frames in sorted(
            supplied.items(), key=lambda item: (item[0][0],
                                                item[0][1].value)):
        if sender not in graph:
            graph.add_node(sender, kind="other")
        for consumer, types in subscriptions.items():
            if data_type in types and consumer != sender:
                if graph.has_edge(sender, consumer):
                    graph[sender][consumer]["data_types"].add(
                        data_type.value)
                    graph[sender][consumer]["frames"] += frames
                else:
                    graph.add_edge(sender, consumer,
                                   data_types={data_type.value},
                                   frames=frames)
    return graph


def dataflow_summary(graph: nx.DiGraph) -> Dict[str, object]:
    """Aggregate facts about the dataflow graph."""
    suppliers = {n for n, _ in graph.edges}
    consumers = {n for _, n in graph.edges}
    fan_out = {n: graph.out_degree(n) for n in suppliers}
    return {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "suppliers": len(suppliers),
        "consumers": len(consumers),
        "max_fan_out": max(fan_out.values()) if fan_out else 0,
        "mean_fan_out": (sum(fan_out.values()) / len(fan_out)
                         if fan_out else 0.0),
    }


def render_dataflow(graph: nx.DiGraph, max_rows: int = 40) -> str:
    """Text rendering of the Fig. 8 graph, heaviest flows first."""
    rows: List[Tuple[int, str]] = []
    for sender, consumer, attrs in graph.edges(data=True):
        types = ",".join(sorted(attrs["data_types"]))
        rows.append((attrs["frames"],
                     f"  {sender:<18} --[{types}]--> {consumer}"))
    rows.sort(reverse=True)
    lines = ["Data supply/consumption graph (paper Fig. 8)"]
    for frames, text in rows[:max_rows]:
        lines.append(f"{text}   ({frames} frames)")
    if len(rows) > max_rows:
        lines.append(f"  ... and {len(rows) - max_rows} more edges")
    return "\n".join(lines)


def required_flows() -> List[Tuple[str, str, DataType]]:
    """The load-bearing flows the paper's control loops need.

    Expressed as (supplier-prefix, consumer-prefix, type) triples: at
    least one concrete edge must match each.  These mirror the arrows
    of Fig. 8.
    """
    return [
        ("bt-room-temp", "control-c2", DataType.TEMPERATURE),
        ("bt-ceil-hum", "control-c2", DataType.HUMIDITY),
        ("control-c1", "control-c2", DataType.WATER_TEMP),
        ("bt-room-hum", "control-v1", DataType.HUMIDITY),
        ("control-c1", "control-v1", DataType.WATER_TEMP),
        ("control-v2", "control-v1", DataType.AIRBOX_DEW),
        ("bt-room-hum", "control-v2", DataType.HUMIDITY),
        ("control-v3", "control-v2", DataType.CO2),
        ("control-v2", "control-v3", DataType.FAN_CMD),
    ]


def verify_dataflow(graph: nx.DiGraph) -> List[str]:
    """Check every required flow is present; returns missing ones."""
    missing = []
    for supplier_prefix, consumer_prefix, data_type in required_flows():
        found = False
        for sender, consumer, attrs in graph.edges(data=True):
            if (sender.startswith(supplier_prefix)
                    and consumer.startswith(consumer_prefix)
                    and data_type.value in attrs["data_types"]):
                found = True
                break
        if not found:
            missing.append(f"{supplier_prefix} -> {consumer_prefix} "
                           f"[{data_type.value}]")
    return missing
