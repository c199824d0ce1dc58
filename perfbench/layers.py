"""Per-layer host-time tracing, installed from outside the program.

The traced run wraps the public functions of each layer of ``repro``
and records one span per call: layer name, start, end, parent span and
bundle ordinal.  A layer's *self time* is its span durations minus the
time covered by its child spans, so the self times of all layers plus
``other_s`` add up to the timed window.  Spans stay in memory and are
written out when the run ends.

Wrappers are installed where callers look the name up: on the class
for methods, and in *every* loaded ``repro`` module that holds a
reference to a wrapped function (``from repro.crypto.keccak import
keccak256`` binds the name in the importing module, so patching the
defining module alone would silently miss those call sites).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import pkgutil
import sys
from collections import defaultdict
from pathlib import Path

# Layer names, in report order.  Each maps to a metric prefix.
LAYERS = {
    "workloads": "workloads",
    "node": "node",
    "core.client": "client",
    "core.service": "service",
    "hypervisor": "hypervisor",
    "hypervisor.attestation": "attest",
    "hypervisor.channel": "channel",
    "hypervisor.sync": "sync",
    "hardware.hevm": "hevm",
    "evm": "evm",
    "oram": "oram",
    "trie": "trie",
    "crypto.keccak": "crypto.keccak",
    "crypto.ecc": "crypto.ecc",
    "crypto.aead": "crypto.aead",
    "serving.gateway": "gateway",
}


class SpanRecorder:
    """Single-threaded span stack with online self-time accounting."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.enabled = False
        self.phase = "window"
        self.bundle = -1
        # (layer, phase, start_s, end_s, parent_index, bundle)
        self.spans: list[tuple] = []
        # open spans: [span_index, layer, child_seconds, start, parent]
        self._stack: list[list] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def inside(self, layer: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == layer

    def open(self, layer: str, start: float) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, layer, 0.0, start, parent]
        self._stack.append(frame)
        self.calls[(self.phase, layer)] += 1
        return frame

    def close(self, frame: list, end: float) -> None:
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        index, layer, child, start, parent = frame
        duration = end - start
        self.self_s[(self.phase, layer)] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (layer, self.phase, start, end, parent, self.bundle)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def layer_self_s(self, phase: str) -> dict[str, float]:
        return {
            layer: seconds
            for (span_phase, layer), seconds in self.self_s.items()
            if span_phase == phase
        }

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (host µs)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("index\tlayer\tphase\tstart_us\tend_us\tparent\tbundle\n")
            for index, span in enumerate(self.spans):
                layer, phase, start, end, parent, bundle = span
                out.write(
                    f"{index}\t{layer}\t{phase}\t"
                    f"{start * 1e6:.1f}\t{end * 1e6:.1f}\t"
                    f"{parent}\t{bundle}\n"
                )


def _wrap(recorder: SpanRecorder, layer: str, fn, counter=None, nest=False):
    """A traced stand-in for ``fn``.

    A call made from inside a span of the same layer is that layer's
    own internal work and opens no new span, unless ``nest`` is set
    (EVM frames nest by design and each one is a frame).
    """
    clock = recorder.clock

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled or (not nest and recorder.inside(layer)):
            return fn(*args, **kwargs)
        frame = recorder.open(layer, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame, clock())
        if counter is not None:
            counter(recorder, args, result)
        return result

    return traced


def _rebind(original, replacement) -> int:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def _count_items(name: str, position: int):
    def counter(recorder, args, _result):
        recorder.count(name, len(args[position]))
    return counter


def _count_one(name: str):
    def counter(recorder, _args, _result):
        recorder.count(name)
    return counter


def _aead_single(recorder, args, _result):
    recorder.count("crypto.aead.ops")
    recorder.count("crypto.aead.bytes", len(args[2]))


def _aead_blocks(recorder, args, _result):
    items = args[1]
    recorder.count("crypto.aead.ops", len(items))
    recorder.count("crypto.aead.bytes", sum(len(item[1]) for item in items))


def _channel_seal(recorder, _args, result):
    recorder.count("channel.messages")
    recorder.count("channel.bytes", result.wire_size)


def _channel_open(recorder, args, _result):
    recorder.count("channel.messages")
    recorder.count("channel.bytes", args[1].wire_size)


def _channel_open_batch(recorder, args, _result):
    recorder.count("channel.messages", len(args[1]))
    recorder.count("channel.bytes", sum(m.wire_size for m in args[1]))


def _hevm_run(recorder, _args, result):
    stats = result[2]
    recorder.count("hevm.bundles")
    recorder.count("hevm.oram_queries", stats.oram_queries)
    recorder.count("hevm.direct_queries", stats.direct_queries)
    recorder.count("hevm.l1_hits", stats.l1_ws_hits)
    recorder.count("hevm.l1_lookups", stats.l1_ws_hits + stats.l1_ws_misses)


def _evm_frame(recorder, args, result):
    message = args[1]
    recorder.count("evm.frames")
    if message.depth == 0:
        # Nested frames' gas is already inside their parent's.
        recorder.count("evm.gas", message.gas - result.gas_left)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points."""
    import repro

    # Load every module that may hold a from-imported reference before
    # rebinding, so no call site keeps the unwrapped original.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)

    from repro.core.service import HarDTAPEService
    from repro.core.user import PreExecutionClient
    from repro.crypto import ecc, keccak
    from repro.crypto.suite import AesGcmAead
    from repro.hardware.hevm import HevmCore
    from repro.hypervisor import attestation
    from repro.hypervisor.channel import SecureChannel
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.evm.interpreter import Interpreter
    from repro.node.node import EthereumNode
    from repro.oram.client import PathOramClient
    from repro.serving.gateway import Gateway
    from repro.trie import mpt
    from repro.workloads import generator

    methods = [
        (EthereumNode, "add_block", "node", None),
        (PreExecutionClient, "connect", "core.client", None),
        (PreExecutionClient, "pre_execute", "core.client", None),
        (HarDTAPEService, "__init__", "core.service", None),
        (HarDTAPEService, "submit_bundle", "core.service", None),
        (HarDTAPEService, "sync_new_blocks", "core.service", None),
        (Hypervisor, "submit_bundle", "hypervisor", None),
        (Hypervisor, "begin_attestation", "hypervisor.attestation", None),
        (Hypervisor, "establish_session", "hypervisor.attestation", None),
        (Hypervisor, "sync_block", "hypervisor.sync", None),
        (SecureChannel, "seal", "hypervisor.channel", _channel_seal),
        (SecureChannel, "open", "hypervisor.channel", _channel_open),
        (SecureChannel, "open_batch", "hypervisor.channel", _channel_open_batch),
        (HevmCore, "run_bundle", "hardware.hevm", _hevm_run),
        (PathOramClient, "access", "oram", None),
        (mpt.MerklePatriciaTrie, "root_hash", "trie", None),
        (mpt.MerklePatriciaTrie, "prove", "trie", None),
        (ecc.PrivateKey, "sign", "crypto.ecc", _count_one("crypto.ecc.sign_calls")),
        (ecc.PrivateKey, "ecdh", "crypto.ecc", _count_one("crypto.ecc.ecdh_calls")),
        (ecc.PrivateKey, "public_key", "crypto.ecc",
         _count_one("crypto.ecc.keygen_calls")),
        (ecc.PublicKey, "verify", "crypto.ecc",
         _count_one("crypto.ecc.verify_calls")),
        (ecc.PrecomputedVerifier, "verify", "crypto.ecc",
         _count_one("crypto.ecc.verify_calls")),
        (ecc.PrecomputedVerifier, "verify_many", "crypto.ecc",
         _count_items("crypto.ecc.verify_calls", 1)),
        (AesGcmAead, "__init__", "crypto.aead",
         _count_one("crypto.aead.key_setups")),
        (AesGcmAead, "encrypt", "crypto.aead", _aead_single),
        (AesGcmAead, "decrypt", "crypto.aead", _aead_single),
        (AesGcmAead, "seal_blocks", "crypto.aead", _aead_blocks),
        (AesGcmAead, "open_blocks", "crypto.aead", _aead_blocks),
        (Gateway, "submit", "serving.gateway", None),
        (Gateway, "advance_until", "serving.gateway", None),
        (Gateway, "drain", "serving.gateway", None),
    ]
    for cls, name, layer, counter in methods:
        setattr(cls, name, _wrap(recorder, layer, cls.__dict__[name], counter))
    setattr(
        Interpreter, "execute_message",
        _wrap(recorder, "evm", Interpreter.__dict__["execute_message"],
              _evm_frame, nest=True),
    )

    functions = [
        (generator.build_evaluation_set, "workloads", None),
        (keccak.keccak256, "crypto.keccak", _count_one("crypto.keccak.hashes")),
        (keccak.keccak256_many, "crypto.keccak",
         _count_items("crypto.keccak.hashes", 0)),
        (ecc.batch_verify, "crypto.ecc", _count_items("crypto.ecc.verify_calls", 0)),
        (ecc.precomputed_verifier, "crypto.ecc", None),
        (attestation.verify_report, "hypervisor.attestation", None),
        (mpt.verify_proof, "trie", None),
    ]
    for original, layer, counter in functions:
        replacement = _wrap(recorder, layer, original, counter)
        if _rebind(original, replacement) == 0:
            raise RuntimeError(f"no module binds {original.__qualname__}")
