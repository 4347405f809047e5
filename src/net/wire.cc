#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.h"

namespace wedge {

Bytes EncodeFrame(const Bytes& payload) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(out, kFrameMagic);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  Append(out, payload);
  return out;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates, keeping the buffer small
  // without a memmove per frame.
  if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + pos_);
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

Result<bool> FrameDecoder::Next(Bytes* out) {
  if (poisoned_) {
    return Status::Corruption("frame stream already poisoned");
  }
  if (buffered() < kFrameHeaderBytes) return false;
  const uint8_t* head = buffer_.data() + pos_;
  uint32_t magic = (uint32_t{head[0]} << 24) | (uint32_t{head[1]} << 16) |
                   (uint32_t{head[2]} << 8) | uint32_t{head[3]};
  uint32_t length = (uint32_t{head[4]} << 24) | (uint32_t{head[5]} << 16) |
                    (uint32_t{head[6]} << 8) | uint32_t{head[7]};
  if (magic != kFrameMagic) {
    poisoned_ = true;
    return Status::Corruption("bad frame magic");
  }
  if (length > max_frame_bytes_) {
    poisoned_ = true;
    return Status::OutOfRange("frame length " + std::to_string(length) +
                              " exceeds limit " +
                              std::to_string(max_frame_bytes_));
  }
  if (buffered() < kFrameHeaderBytes + length) return false;
  out->assign(head + kFrameHeaderBytes, head + kFrameHeaderBytes + length);
  pos_ += kFrameHeaderBytes + length;
  return true;
}

Bytes RpcRequest::Encode() const {
  Bytes out;
  PutU64(out, rpc_id);
  PutString(out, op);
  PutBytes(out, body);
  if (trace_id != 0) {
    PutU32(out, kTraceExtMagic);
    PutU64(out, trace_id);
    PutString(out, origin);
  }
  return out;
}

Result<RpcRequest> RpcRequest::Decode(const Bytes& payload) {
  ByteReader reader(payload);
  RpcRequest req;
  WEDGE_ASSIGN_OR_RETURN(req.rpc_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(req.op, reader.ReadString());
  if (req.op.size() > kMaxOpBytes) {
    return Status::OutOfRange("rpc op name too long");
  }
  WEDGE_ASSIGN_OR_RETURN(req.body, reader.ReadBytes());
  if (reader.AtEnd()) return req;  // Legacy frame: untraced.
  WEDGE_ASSIGN_OR_RETURN(uint32_t ext_magic, reader.ReadU32());
  if (ext_magic != kTraceExtMagic) {
    return Status::InvalidArgument("trailing bytes after rpc request");
  }
  WEDGE_ASSIGN_OR_RETURN(req.trace_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(req.origin, reader.ReadString());
  if (req.origin.size() > kMaxTraceOriginBytes) {
    return Status::OutOfRange("trace origin too long");
  }
  if (req.trace_id == 0) {
    return Status::InvalidArgument("trace extension with zero trace_id");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after rpc request");
  }
  return req;
}

RpcResponse RpcResponse::Success(uint64_t id, Bytes body) {
  RpcResponse resp;
  resp.rpc_id = id;
  resp.ok = true;
  resp.body = std::move(body);
  return resp;
}

RpcResponse RpcResponse::Failure(uint64_t id, std::string error) {
  RpcResponse resp;
  resp.rpc_id = id;
  resp.ok = false;
  resp.error = std::move(error);
  return resp;
}

Bytes RpcResponse::Encode() const {
  Bytes out;
  PutU64(out, rpc_id);
  out.push_back(ok ? 1 : 0);
  if (ok) {
    PutBytes(out, body);
  } else {
    PutString(out, error);
  }
  return out;
}

Result<RpcResponse> RpcResponse::Decode(const Bytes& payload) {
  ByteReader reader(payload);
  RpcResponse resp;
  WEDGE_ASSIGN_OR_RETURN(resp.rpc_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(Bytes flag, reader.ReadRaw(1));
  resp.ok = flag[0] != 0;
  if (resp.ok) {
    WEDGE_ASSIGN_OR_RETURN(resp.body, reader.ReadBytes());
  } else {
    WEDGE_ASSIGN_OR_RETURN(resp.error, reader.ReadString());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after rpc response");
  }
  return resp;
}

SignedEnvelope SignedEnvelope::Create(const KeyPair& key, Bytes payload) {
  SignedEnvelope env;
  env.sender = key.address();
  env.payload = std::move(payload);
  Bytes material;
  Append(material, env.sender.ToBytes());
  PutBytes(material, env.payload);
  env.signature = EcdsaSign(key.private_key(), Sha256::Digest(material));
  return env;
}

bool SignedEnvelope::Verify() const {
  Bytes material;
  Append(material, sender.ToBytes());
  PutBytes(material, payload);
  return VerifySigner(sender, Sha256::Digest(material), signature);
}

Bytes SignedEnvelope::Serialize() const {
  Bytes out;
  Append(out, sender.ToBytes());
  PutBytes(out, payload);
  Append(out, signature.Serialize());
  return out;
}

Result<SignedEnvelope> SignedEnvelope::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  SignedEnvelope env;
  WEDGE_ASSIGN_OR_RETURN(Bytes addr, reader.ReadRaw(20));
  std::copy(addr.begin(), addr.end(), env.sender.bytes.begin());
  WEDGE_ASSIGN_OR_RETURN(env.payload, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(Bytes sig, reader.ReadRaw(65));
  WEDGE_ASSIGN_OR_RETURN(env.signature, EcdsaSignature::Deserialize(sig));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after envelope");
  }
  return env;
}

}  // namespace wedge
