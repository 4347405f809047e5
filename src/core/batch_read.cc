#include "core/batch_read.h"

namespace wedge {

Hash256 BatchReadResponse::SignedHash() const {
  Bytes material;
  PutString(material, "wedgeblock-batchread-v1");
  PutU64(material, log_id);
  Append(material, HashToBytes(mroot));
  PutU32(material, static_cast<uint32_t>(entries.size()));
  for (const auto& [offset, data] : entries) {
    PutU64(material, offset);
    PutBytes(material, data);
  }
  PutBytes(material, proof.Serialize());
  return Sha256::Digest(material);
}

bool BatchReadResponse::Verify(const Address& offchain_address) const {
  if (entries.empty()) return false;
  if (!VerifySigner(offchain_address, SignedHash(), offchain_signature)) {
    return false;
  }
  return VerifyMultiProof(entries, proof, mroot);
}

Bytes BatchReadResponse::Serialize() const {
  Bytes out;
  PutU64(out, log_id);
  Append(out, HashToBytes(mroot));
  PutU32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [offset, data] : entries) {
    PutU64(out, offset);
    PutBytes(out, data);
  }
  PutBytes(out, proof.Serialize());
  Append(out, offchain_signature.Serialize());
  return out;
}

Result<BatchReadResponse> BatchReadResponse::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  BatchReadResponse resp;
  WEDGE_ASSIGN_OR_RETURN(resp.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(resp.mroot, HashFromBytes(root_raw));
  WEDGE_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
  if (n > 1u << 22) {
    return Status::InvalidArgument("batch read response too large");
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t offset;
    WEDGE_ASSIGN_OR_RETURN(offset, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(Bytes data, reader.ReadBytes());
    resp.entries.emplace_back(offset, std::move(data));
  }
  WEDGE_ASSIGN_OR_RETURN(Bytes proof_raw, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(resp.proof,
                         MerkleMultiProof::Deserialize(proof_raw));
  WEDGE_ASSIGN_OR_RETURN(Bytes sig, reader.ReadRaw(65));
  WEDGE_ASSIGN_OR_RETURN(resp.offchain_signature,
                         EcdsaSignature::Deserialize(sig));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after batch response");
  }
  return resp;
}

}  // namespace wedge
