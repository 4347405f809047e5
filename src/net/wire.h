#ifndef WEDGEBLOCK_NET_WIRE_H_
#define WEDGEBLOCK_NET_WIRE_H_

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "crypto/ecdsa.h"

namespace wedge {

/// The RPC wire protocol for WedgeBlock's client <-> Offchain Node
/// boundary, spoken by the TCP transport (rpc/RpcServer and
/// rpc/TcpNodeClient):
///
///   frame:    [u32 magic "WDGB"][u32 payload length][payload]
///   payload:  SignedEnvelope::Serialize() (sender, signed RPC message)
///   request:  [u64 rpc_id][string op][bytes body]
///   response: [u64 rpc_id][u8 ok][bytes body | string error]
///
/// Op bodies are defined in core/rpc_codec.h. Every decoder here is
/// bounds-checked and returns a typed error for truncated, oversized or
/// garbage input: a malformed frame must never crash a server.

/// Frame header magic: rejects non-WedgeBlock traffic (and most stream
/// desynchronization) before any allocation happens.
constexpr uint32_t kFrameMagic = 0x57444742;  // "WDGB"
constexpr size_t kFrameHeaderBytes = 8;       // magic + length.

/// Default ceiling for one frame, sized for the paper's worst case (a
/// 2000-entry batch of ~1 KB values plus per-entry Merkle proofs and
/// signatures is a few MB).
constexpr size_t kDefaultMaxFrameBytes = 32u << 20;

/// Hard cap on the RPC op-name length; ops are short identifiers.
constexpr size_t kMaxOpBytes = 64;

/// Tag opening the optional trace-context extension appended after a
/// request body ("TRAC"). Old decoders rejected any trailing bytes, so a
/// tag (rather than a version bump) keeps the extension self-describing:
/// an extension-less encoding is byte-identical to the legacy format and
/// a frame with trailing garbage still fails with a typed error.
constexpr uint32_t kTraceExtMagic = 0x54524143;  // "TRAC"

/// Hard cap on the trace-origin annotation; origins are short labels
/// ("loadgen", "fleetmon", "chaos").
constexpr size_t kMaxTraceOriginBytes = 64;

/// Wraps `payload` in a frame header for a byte-stream transport.
Bytes EncodeFrame(const Bytes& payload);

/// Incremental frame parser for a TCP receive path: feed arbitrary byte
/// chunks, pop complete payloads. Malformed input (bad magic, length over
/// the limit) poisons the decoder — a byte stream cannot be resynchronized
/// after corruption, so the connection must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t n);

  /// Pops the next complete frame payload into `out`. Returns true when a
  /// frame was produced, false when more bytes are needed, or a typed
  /// error (kCorruption / kOutOfRange) when the stream is malformed.
  Result<bool> Next(Bytes* out);

  /// True once a malformed header has been seen; every later Next() fails.
  bool poisoned() const { return poisoned_; }
  /// Bytes buffered but not yet returned as frames.
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  Bytes buffer_;
  size_t pos_ = 0;  // Consumed prefix of buffer_ (compacted lazily).
  bool poisoned_ = false;
};

/// A signed message envelope: the paper assumes every exchanged message is
/// cryptographically signed (§3.1). Wraps (sender address, payload) with an
/// ECDSA signature over their canonical encoding.
struct SignedEnvelope {
  Address sender;
  Bytes payload;
  EcdsaSignature signature;

  /// Signs `payload` with `key` and builds the envelope.
  static SignedEnvelope Create(const KeyPair& key, Bytes payload);

  /// True iff the signature verifies against the claimed sender address.
  bool Verify() const;

  Bytes Serialize() const;
  static Result<SignedEnvelope> Deserialize(const Bytes& b);
};

/// One RPC request as carried inside a SignedEnvelope payload.
///
/// Wire layout: [u64 rpc_id][string op][bytes body] plus an optional
/// trace-context extension [u32 "TRAC"][u64 trace_id][string origin].
/// The extension is emitted only when trace_id != 0, so untraced
/// requests encode byte-identically to the pre-extension format and old
/// frames decode unchanged (trace_id defaults to 0 = untraced).
struct RpcRequest {
  uint64_t rpc_id = 0;
  std::string op;
  Bytes body;
  uint64_t trace_id = 0;  ///< Cross-process trace id (0 = untraced).
  std::string origin;     ///< Trace origin label; carried iff traced.

  Bytes Encode() const;
  /// Rejects truncated input, oversized op names and trailing bytes.
  static Result<RpcRequest> Decode(const Bytes& payload);
};

/// One RPC response as carried inside a SignedEnvelope payload.
struct RpcResponse {
  uint64_t rpc_id = 0;
  bool ok = false;
  Bytes body;         ///< Set when ok.
  std::string error;  ///< Set when !ok.

  static RpcResponse Success(uint64_t id, Bytes body);
  static RpcResponse Failure(uint64_t id, std::string error);

  Bytes Encode() const;
  /// Rejects truncated input and trailing bytes.
  static Result<RpcResponse> Decode(const Bytes& payload);
};

}  // namespace wedge

#endif  // WEDGEBLOCK_NET_WIRE_H_
