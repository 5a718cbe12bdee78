"""Streaming hierarchical-memory engine with a desk-scale benchmark harness."""

from .errors import BackendError, InputError, PortOutputError, ProtocolError, StreamMemError
from .frame_gate import (
    Chunk,
    Frame,
    FrameGate,
    GateConfig,
    MotionEstimate,
    VisionBuffer,
    VisionEmbedding,
)
from .memory_core import (
    PRESETS,
    DialogueEntry,
    KMeansResult,
    MemoryConfig,
    MemorySnapshot,
    MemoryStore,
    MemoryTree,
    TreeNode,
    forgetting_weights,
    kmeans,
    make_unit,
    refresh_short_term,
)
from .pipeline import (
    AnswerRecord,
    Engine,
    QueryRequest,
    RunReport,
    run,
)
from .ports import PortSet, RemoteBackendConfig, hash_text_encode, remote_ports, stub_ports
from .retrieval import (
    PathResult,
    PromptBundle,
    QueryVec,
    assemble_context,
    bundle_digest,
    bundle_to_json,
    cosine_similarity,
    descend_tree,
    encode_query,
    retrieve_dialogue,
)

__version__ = "0.1.0"
