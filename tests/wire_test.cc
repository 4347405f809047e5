#include "net/wire.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/rpc_codec.h"
#include "crypto/sha256.h"

namespace wedge {
namespace {

Bytes SamplePayload() { return ToBytes("hello wedgeblock"); }

// ---------------------------------------------------------------------------
// Framing.

TEST(FrameTest, RoundTrip) {
  Bytes frame = EncodeFrame(SamplePayload());
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + SamplePayload().size());

  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, SamplePayload());
  // Nothing left.
  got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, EmptyPayloadFrame) {
  Bytes frame = EncodeFrame(Bytes{});
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out = ToBytes("sentinel");
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_TRUE(out.empty());
}

TEST(FrameTest, ByteByByteFeed) {
  Bytes frame = EncodeFrame(SamplePayload());
  FrameDecoder decoder;
  Bytes out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(&frame[i], 1);
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok()) << "at byte " << i;
    EXPECT_FALSE(*got) << "frame completed early at byte " << i;
  }
  decoder.Feed(&frame[frame.size() - 1], 1);
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, SamplePayload());
}

TEST(FrameTest, ManyFramesInOneFeed) {
  Bytes stream;
  for (int i = 0; i < 16; ++i) {
    Append(stream, EncodeFrame(ToBytes("payload-" + std::to_string(i))));
  }
  // Plus half of the next frame.
  Bytes last = EncodeFrame(ToBytes("tail"));
  stream.insert(stream.end(), last.begin(), last.begin() + 5);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Bytes out;
  for (int i = 0; i < 16; ++i) {
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(out, ToBytes("payload-" + std::to_string(i)));
  }
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);  // Tail incomplete.
  decoder.Feed(last.data() + 5, last.size() - 5);
  got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, ToBytes("tail"));
}

TEST(FrameTest, BadMagicPoisons) {
  Bytes frame = EncodeFrame(SamplePayload());
  frame[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Code::kCorruption);
  EXPECT_TRUE(decoder.poisoned());

  // Poisoning is permanent even for subsequent valid bytes.
  Bytes good = EncodeFrame(SamplePayload());
  decoder.Feed(good.data(), good.size());
  got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
}

TEST(FrameTest, OversizeLengthPoisons) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  Bytes header;
  PutU32(header, kFrameMagic);
  PutU32(header, 1025);  // One byte over the limit.
  decoder.Feed(header.data(), header.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Code::kOutOfRange);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameTest, MaxSizeFrameAccepted) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  Rng rng(7);
  Bytes payload = rng.NextBytes(64);
  Bytes frame = EncodeFrame(payload);
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, payload);
}

TEST(FrameTest, BufferCompacts) {
  // After consuming many frames the internal buffer must not grow without
  // bound; buffered() reflects only unconsumed bytes.
  FrameDecoder decoder;
  Bytes out;
  for (int i = 0; i < 1000; ++i) {
    Bytes frame = EncodeFrame(ToBytes(std::string(100, 'x')));
    decoder.Feed(frame.data(), frame.size());
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Request / response payload codec.

TEST(RpcCodecTest, RequestRoundTrip) {
  RpcRequest request;
  request.rpc_id = 0x1122334455667788ull;
  request.op = "append";
  request.body = ToBytes("body-bytes");
  auto decoded = RpcRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, request.rpc_id);
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->body, request.body);
}

TEST(RpcCodecTest, ResponseRoundTrips) {
  RpcResponse ok_resp = RpcResponse::Success(42, ToBytes("result"));
  auto decoded = RpcResponse::Decode(ok_resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, 42u);
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->body, ToBytes("result"));

  RpcResponse err_resp = RpcResponse::Failure(43, "no such entry");
  decoded = RpcResponse::Decode(err_resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, 43u);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "no such entry");
}

TEST(RpcCodecTest, RequestTruncationAtEveryPrefixRejected) {
  RpcRequest request;
  request.rpc_id = 99;
  request.op = "readBatch";
  request.body = ToBytes("0123456789");
  Bytes wire = request.Encode();
  for (size_t n = 0; n < wire.size(); ++n) {
    Bytes prefix(wire.begin(), wire.begin() + n);
    auto decoded = RpcRequest::Decode(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
  }
}

TEST(RpcCodecTest, ResponseTruncationAtEveryPrefixRejected) {
  Bytes ok_wire = RpcResponse::Success(7, ToBytes("abcdef")).Encode();
  Bytes err_wire = RpcResponse::Failure(8, "boom").Encode();
  for (const Bytes& wire : {ok_wire, err_wire}) {
    for (size_t n = 0; n < wire.size(); ++n) {
      Bytes prefix(wire.begin(), wire.begin() + n);
      EXPECT_FALSE(RpcResponse::Decode(prefix).ok())
          << "prefix of " << n << " bytes decoded";
    }
  }
}

TEST(RpcCodecTest, TrailingBytesRejected) {
  RpcRequest traced;
  traced.rpc_id = 1;
  traced.op = "read";
  Bytes request = traced.Encode();
  request.push_back(0);
  EXPECT_FALSE(RpcRequest::Decode(request).ok());

  Bytes response = RpcResponse::Success(1, ToBytes("x")).Encode();
  response.push_back(0);
  EXPECT_FALSE(RpcResponse::Decode(response).ok());
}

TEST(RpcCodecTest, OversizeOpNameRejected) {
  RpcRequest request;
  request.rpc_id = 5;
  request.op = std::string(kMaxOpBytes + 1, 'z');
  auto decoded = RpcRequest::Decode(request.Encode());
  ASSERT_FALSE(decoded.ok());
}

TEST(RpcCodecTest, GarbageNeverDecodes) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 200; ++i) {
    Bytes garbage = rng.NextBytes(rng.Uniform(64));
    // Either decode succeeds by luck (must be internally consistent) or a
    // typed error comes back. Never a crash.
    auto request = RpcRequest::Decode(garbage);
    if (request.ok()) {
      EXPECT_LE(request->op.size(), kMaxOpBytes);
    }
    (void)RpcResponse::Decode(garbage);
  }
}

// The malformed-frame corpus: mutate valid encoded frames/payloads and make
// sure the decoders always fail cleanly (tested against live transports in
// rpc_test.cc and remote_test.cc).
TEST(RpcCodecTest, MutatedFrameCorpus) {
  Rng rng(2024);
  RpcRequest request;
  request.rpc_id = 77;
  request.op = "append";
  request.body = rng.NextBytes(256);
  const Bytes payload = request.Encode();
  const Bytes frame = EncodeFrame(payload);

  for (int round = 0; round < 500; ++round) {
    Bytes mutant = frame;
    size_t flips = 1 + rng.Uniform(8);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.Uniform(mutant.size())] ^= 1 << rng.Uniform(8);
    }
    FrameDecoder decoder(/*max_frame_bytes=*/4096);
    decoder.Feed(mutant.data(), mutant.size());
    Bytes out;
    while (true) {
      auto got = decoder.Next(&out);
      if (!got.ok() || !*got) break;
      (void)RpcRequest::Decode(out);  // Must not crash on mutated payloads.
    }
  }
}

// ---------------------------------------------------------------------------
// Signed envelopes.

TEST(SignedEnvelopeTest, CreateAndVerify) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  EXPECT_EQ(env.sender, key.address());
  EXPECT_TRUE(env.Verify());
}

TEST(SignedEnvelopeTest, TamperedPayloadFails) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  env.payload[0] ^= 0xFF;
  EXPECT_FALSE(env.Verify());
}

TEST(SignedEnvelopeTest, SpoofedSenderFails) {
  KeyPair key = KeyPair::FromSeed(42);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("payload"));
  env.sender = KeyPair::FromSeed(43).address();
  EXPECT_FALSE(env.Verify());
}

TEST(SignedEnvelopeTest, ZeroSenderWithGarbageSignatureFails) {
  // Recovery of (r = 0, s = 1) fails, and a failed recovery yields the
  // zero address: an envelope claiming that sender must not verify.
  SignedEnvelope env;
  env.sender = Address::Zero();
  env.payload = ToBytes("payload");
  env.signature.r = U256::Zero();
  env.signature.s = U256::One();
  EXPECT_FALSE(env.Verify());
  auto back = SignedEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->Verify());
}

TEST(SignedEnvelopeTest, SerializationRoundTrip) {
  KeyPair key = KeyPair::FromSeed(7);
  SignedEnvelope env = SignedEnvelope::Create(key, ToBytes("wire me"));
  auto back = SignedEnvelope::Deserialize(env.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sender, env.sender);
  EXPECT_EQ(back->payload, env.payload);
  EXPECT_TRUE(back->Verify());
  EXPECT_FALSE(SignedEnvelope::Deserialize(Bytes(10, 0)).ok());
}

// ---------------------------------------------------------------------------
// Op bodies (core/rpc_codec.h).

TEST(OpBodyTest, TenantBodiesArePinned) {
  // Each encoder writes the tenant prefix and the op body into one
  // buffer; the bytes must stay exactly what deployed clients send.
  KeyPair publisher = KeyPair::FromSeed(0x5EED);
  std::vector<AppendRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(AppendRequest::Make(
        publisher, 40 + i, ToBytes("key-" + std::to_string(i)),
        ToBytes("value-" + std::to_string(i))));
  }
  const TenantId tenant = 0x0102030405060708ULL;

  Bytes append = EncodeTenantAppendBody(tenant, requests);
  EXPECT_EQ(append.size(), 363u);
  EXPECT_EQ(HashToHex(Sha256::Digest(append)),
            "0cd37b4b89ab1550d457ef7acc088f5d3149353ee87a2e7034e4442fcaede078");
  EXPECT_EQ(HexEncode(EncodeTenantReadBody(tenant, EntryIndex{7, 3})),
            "0102030405060708000000000000000700000003");
  EXPECT_EQ(HexEncode(EncodeTenantReadBatchBody(tenant, 9, {0, 2, 5})),
            "0102030405060708000000000000000900000003000000000000000200000005");
  EXPECT_EQ(HexEncode(EncodeAggProofBody(tenant, 11)),
            "0102030405060708000000000000000b");
}

}  // namespace
}  // namespace wedge
