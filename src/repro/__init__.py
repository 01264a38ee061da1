"""repro -- Two-Tier Air Indexing for On-Demand XML Data Broadcast.

A from-scratch Python reproduction of Sun, Yu, Qing, Zhang & Zheng,
*Two-Tier Air Indexing for On-Demand XML Data Broadcast* (ICDCS 2009),
including every substrate the paper depends on: an XML toolkit with a
DTD-driven document generator, the paper's XPath subset, a YFilter-style
shared-path NFA, DataGuides and their RoXSum combination, the Compact
Index / pruned PCI / two-tier split with byte-exact encoding and packet
packing, an on-demand broadcast server with multi-item-aware scheduling,
the one-tier and two-tier client access protocols, and a discrete-event
simulation that regenerates every figure of the paper's evaluation.

Quick start::

    from repro import (
        nitf_like_dtd, generate_collection, generate_workload,
        DocumentStore, BroadcastServer, TwoTierClient,
    )

    docs = generate_collection(nitf_like_dtd(), 100, seed=7)
    queries = generate_workload(docs, 20, seed=11)
    server = BroadcastServer(DocumentStore(docs))
    for q in queries:
        server.submit(q, arrival_time=0)
    cycle = server.build_cycle()
    client = TwoTierClient(queries[0], arrival_time=0)
    client.on_cycle(cycle)
    print(client.metrics.index_lookup_bytes, "bytes of index look-up")

See ``examples/`` for full scenarios and ``python -m repro.experiments``
for the paper's tables and figures.
"""

__version__ = "1.0.0"

# XML substrate
from repro.xmlkit import (
    DTD,
    DocumentGenerator,
    GeneratorConfig,
    XMLDocument,
    XMLElement,
    dblp_like_dtd,
    generate_collection,
    nasa_like_dtd,
    nitf_like_dtd,
    parse_document,
    serialize_document,
)

# XPath subset
from repro.xpath import (
    Axis,
    Step,
    XPathQuery,
    generate_workload,
    parse_query,
)

# Filtering
from repro.filtering import LazyQueryDFA, SharedPathNFA

# DataGuides
from repro.dataguide import (
    CombinedDataGuide,
    DataGuide,
    build_combined_guide,
    build_dataguide,
)

# Core index
from repro.index import (
    CompactIndex,
    PAPER_SIZE_MODEL,
    PackingStrategy,
    SizeModel,
    TwoTierIndex,
    build_full_ci,
    pack_index,
    prune_to_pci,
    split_two_tier,
)

# Broadcast system
from repro.broadcast import (
    BroadcastCycle,
    BroadcastServer,
    DocumentStore,
    IndexScheme,
    make_scheduler,
)

# Clients
from repro.client import (
    FirstTierRead,
    NaiveClient,
    OneTierClient,
    TwoTierClient,
)

# Simulation
from repro.sim import (
    Simulation,
    SimulationConfig,
    SimulationResult,
    paper_setup,
    run_simulation,
)

# Fault injection
from repro.faults import (
    ChaosSimulation,
    FaultPlan,
    default_fault_plan,
)

# Live serving
from repro.net import (
    AsyncTwoTierClient,
    BroadcastDaemon,
    ClientReport,
    DaemonConfig,
)

__all__ = [
    "__version__",
    # xmlkit
    "DTD",
    "DocumentGenerator",
    "GeneratorConfig",
    "XMLDocument",
    "XMLElement",
    "dblp_like_dtd",
    "generate_collection",
    "nasa_like_dtd",
    "nitf_like_dtd",
    "parse_document",
    "serialize_document",
    # xpath
    "Axis",
    "Step",
    "XPathQuery",
    "generate_workload",
    "parse_query",
    # filtering
    "LazyQueryDFA",
    "SharedPathNFA",
    # dataguide
    "CombinedDataGuide",
    "DataGuide",
    "build_combined_guide",
    "build_dataguide",
    # index
    "CompactIndex",
    "PAPER_SIZE_MODEL",
    "PackingStrategy",
    "SizeModel",
    "TwoTierIndex",
    "build_full_ci",
    "pack_index",
    "prune_to_pci",
    "split_two_tier",
    # broadcast
    "BroadcastCycle",
    "BroadcastServer",
    "DocumentStore",
    "IndexScheme",
    "make_scheduler",
    # client
    "FirstTierRead",
    "NaiveClient",
    "OneTierClient",
    "TwoTierClient",
    # sim
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "paper_setup",
    "run_simulation",
    # faults
    "ChaosSimulation",
    "FaultPlan",
    "default_fault_plan",
    # net
    "AsyncTwoTierClient",
    "BroadcastDaemon",
    "ClientReport",
    "DaemonConfig",
]
