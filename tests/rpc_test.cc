// Loopback end-to-end tests for the TCP transport (src/rpc/): RpcServer
// serving DispatchEngineRpc over a 1-shard ShardedDeployment in the
// paper's per-batch stage-2 mode (what wedgeblockd serves by default),
// driven by TcpNodeClient on an ephemeral 127.0.0.1 port. Raw-socket
// peers play the adversary: malformed frames against the server, and a
// silent or lying fake server against the client.
//
// Set WEDGE_SKIP_SOCKET_TESTS=1 to skip at runtime (sandboxes without
// loopback networking); the WEDGE_SKIP_SOCKET_TESTS CMake option removes
// the binary from the build entirely.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

bool SocketTestsDisabled() {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  return skip != nullptr && skip[0] == '1';
}

// Blocking loopback dial for raw-frame tests (the adversary's socket).
int DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool WriteAll(int fd, const Bytes& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// A loopback listener on an ephemeral port for fake-server tests. The
// kernel completes a client's connect() from the backlog, so a peer that
// never calls accept() still looks connected.
int ListenLoopback(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  // Bounds accept() and every read on the accepted sockets.
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  *port = ntohs(addr.sin_port);
  return fd;
}

// Reads frames off `fd` until one completes (or EOF / timeout).
Result<Bytes> ReadOneFrame(int fd) {
  FrameDecoder decoder;
  uint8_t buf[4096];
  while (true) {
    Bytes payload;
    auto got = decoder.Next(&payload);
    if (!got.ok()) return got.status();
    if (*got) return payload;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return Status::Unavailable("peer closed");
    if (n < 0) return Status::Timeout("read timed out");
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

constexpr TenantId kTenant = 0;

// The wedgeblockd default: one shard, per-batch stage 2.
ShardedDeploymentConfig OneShardConfig() {
  ShardedDeploymentConfig config;
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 1;
  config.engine.forest_stage2 = false;
  return config;
}

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (SocketTestsDisabled()) {
      GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
    }
    ShardedDeploymentConfig config = OneShardConfig();
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    server_key_ = std::make_unique<KeyPair>(
        KeyPair::FromSeed(config.engine_key_seed));
    RpcServerConfig server_config;  // Ephemeral port.
    server_ = std::make_unique<RpcServer>(Handler(), *server_key_,
                                          server_config,
                                          &deployment_->telemetry());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  RpcServer::Handler Handler() {
    ShardedLogEngine* engine = &deployment_->engine();
    return [engine](std::string_view op, const Bytes& body) {
      return DispatchEngineRpc(*engine, op, body);
    };
  }

  const Address& engine_address() { return deployment_->engine().address(); }

  std::unique_ptr<TcpNodeClient> MakeClient(int pool_size = 1,
                                            Micros timeout = 5 *
                                                             kMicrosPerSecond) {
    TcpClientConfig config;
    config.port = server_->port();
    config.pool_size = pool_size;
    config.rpc_timeout = timeout;
    return std::make_unique<TcpNodeClient>(KeyPair::FromSeed(0xC11E),
                                           server_key_->address(), config);
  }

  static std::vector<AppendRequest> MakeBatch(const KeyPair& publisher,
                                              uint64_t& seq, int n,
                                              const std::string& tag = "k") {
    std::vector<AppendRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(AppendRequest::Make(publisher, seq++,
                                        ToBytes(tag + std::to_string(i)),
                                        ToBytes("v")));
    }
    return out;
  }

  std::unique_ptr<ShardedDeployment> deployment_;
  std::unique_ptr<KeyPair> server_key_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(RpcTest, AppendReadAndBatchReadOverLoopback) {
  auto client = MakeClient(/*pool_size=*/2);
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  auto responses = client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 4u);
  for (const auto& r : *responses) {
    EXPECT_TRUE(r.Verify(engine_address()));
  }

  auto read = client->ReadOneForTenant(kTenant, EntryIndex{0, 2});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->index, (EntryIndex{0, 2}));
  EXPECT_TRUE(read->Verify(engine_address()));

  auto missing = client->ReadOneForTenant(kTenant, EntryIndex{9, 0});
  ASSERT_FALSE(missing.ok());
  // Remote errors arrive typed (Status::FromWireString round-trip).
  EXPECT_EQ(missing.status().code(), Code::kNotFound);

  auto batch = client->ReadBatchForTenant(kTenant, 0, {0, 3});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->entries.size(), 2u);
  EXPECT_TRUE(batch->Verify(engine_address()));

  EXPECT_EQ(client->discarded_responses(), 0u);
  EXPECT_EQ(server_->requests_served(), 4u);
  client->Close();
}

TEST_F(RpcTest, ConcurrentPipelinedClientsEveryProofVerifies) {
  auto client = MakeClient(/*pool_size=*/2);
  ASSERT_TRUE(client->Connect().ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KeyPair publisher = KeyPair::FromSeed(1000 + t);
      uint64_t seq = 0;
      for (int round = 0; round < kRounds; ++round) {
        auto responses = client->AppendForTenant(kTenant, 
            MakeBatch(publisher, seq, 4, "t" + std::to_string(t) + "-"));
        if (!responses.ok() || responses->size() != 4) {
          ++failures;
          continue;
        }
        for (const auto& r : *responses) {
          if (!r.Verify(engine_address())) ++failures;
        }
        auto read = client->ReadOneForTenant(kTenant, responses->front().index);
        if (!read.ok() || read->index != responses->front().index ||
            !read->Verify(engine_address())) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client->discarded_responses(), 0u);
  EXPECT_EQ(client->reconnects(), 0u);
  // One append + one read per round per thread.
  EXPECT_EQ(server_->requests_served(),
            static_cast<uint64_t>(kThreads * kRounds * 2));
  client->Close();
  server_->Shutdown();  // Graceful drain with clients having been active.
}

TEST_F(RpcTest, OutOfOrderResponsesOnOneSocket) {
  // pool_size=1 forces both threads onto one pipelined socket: a slow big
  // append and fast small reads interleave, so responses come back out of
  // order and must be correlated by rpc_id.
  auto client = MakeClient(/*pool_size=*/1);
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());

  std::atomic<int> failures{0};
  std::thread writer([&] {
    KeyPair big_publisher = KeyPair::FromSeed(2000);
    uint64_t big_seq = 0;
    for (int i = 0; i < 5; ++i) {
      std::vector<AppendRequest> batch;
      for (int j = 0; j < 32; ++j) {
        batch.push_back(AppendRequest::Make(big_publisher, big_seq++,
                                            ToBytes("big"),
                                            Bytes(16 * 1024, 0xAB)));
      }
      if (!client->AppendForTenant(kTenant, batch).ok()) ++failures;
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 40; ++i) {
      auto read = client->ReadOneForTenant(kTenant, EntryIndex{0, static_cast<uint32_t>(i % 4)});
      if (!read.ok() ||
          read->index.offset != static_cast<uint32_t>(i % 4)) {
        ++failures;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client->discarded_responses(), 0u);
  client->Close();
}

TEST_F(RpcTest, TcpRepliesMatchInProcessEngineCalls) {
  // The same deterministic workload through TCP and through direct calls
  // on a twin engine must produce byte-identical stage-1 responses (RFC
  // 6979 signing makes the engine's signatures deterministic): the
  // transport adds nothing to, and loses nothing from, what the engine
  // answers.
  auto twin = ShardedDeployment::Create(OneShardConfig());
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  ShardedLogEngine& local = (*twin)->engine();

  auto tcp_client = MakeClient();
  ASSERT_TRUE(tcp_client->Connect().ok());

  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t local_seq = 0, tcp_seq = 0;
  auto local_responses =
      local.Append(kTenant, MakeBatch(publisher, local_seq, 4));
  auto tcp_responses =
      tcp_client->AppendForTenant(kTenant, MakeBatch(publisher, tcp_seq, 4));
  ASSERT_TRUE(local_responses.ok());
  ASSERT_TRUE(tcp_responses.ok());
  ASSERT_EQ(local_responses->size(), tcp_responses->size());
  for (size_t i = 0; i < local_responses->size(); ++i) {
    EXPECT_EQ((*local_responses)[i].Serialize(),
              (*tcp_responses)[i].Serialize())
        << "response " << i << " differs across the wire";
  }

  auto local_read = local.ReadOne(kTenant, EntryIndex{0, 1});
  auto tcp_read = tcp_client->ReadOneForTenant(kTenant, EntryIndex{0, 1});
  ASSERT_TRUE(local_read.ok());
  ASSERT_TRUE(tcp_read.ok());
  EXPECT_EQ(local_read->Serialize(), tcp_read->Serialize());

  auto local_batch = local.ReadBatch(kTenant, 0, {0, 3});
  auto tcp_batch = tcp_client->ReadBatchForTenant(kTenant, 0, {0, 3});
  ASSERT_TRUE(local_batch.ok());
  ASSERT_TRUE(tcp_batch.ok());
  EXPECT_EQ(local_batch->Serialize(), tcp_batch->Serialize());
  tcp_client->Close();
}

TEST_F(RpcTest, MalformedFrameCorpusKeepsServerServing) {
  // Build one valid append frame, then replay mutated copies against the
  // server over raw sockets. It may not crash, and must keep serving
  // valid traffic afterwards.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  RpcRequest request;
  request.rpc_id = 1;
  request.op = std::string(kOpAppendTenant);
  request.body = EncodeTenantAppendBody(kTenant, MakeBatch(publisher, seq, 4));
  SignedEnvelope envelope =
      SignedEnvelope::Create(publisher, request.Encode());
  const Bytes frame = EncodeFrame(envelope.Serialize());

  Rng rng(0xC0FFEE);
  // A few adversarial connections, several mutants each.
  for (int conn = 0; conn < 8; ++conn) {
    int fd = DialLoopback(server_->port());
    ASSERT_GE(fd, 0);
    for (int m = 0; m < 8; ++m) {
      Bytes mutant = frame;
      size_t flips = 1 + rng.Uniform(8);
      for (size_t f = 0; f < flips; ++f) {
        mutant[rng.Uniform(mutant.size())] ^= 1 << rng.Uniform(8);
      }
      if (!WriteAll(fd, mutant)) break;  // Server closed on us: expected.
    }
    ::close(fd);
  }

  // The server still serves valid traffic.
  EXPECT_TRUE(server_->running());
  auto tcp_client = MakeClient();
  auto responses =
      tcp_client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (const auto& r : *responses) {
    EXPECT_TRUE(r.Verify(engine_address()));
  }
  tcp_client->Close();
}

TEST_F(RpcTest, OversizeAndGarbageFramesCloseTheConnection) {
  // Length field over the server's limit: connection must be closed.
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  Bytes header;
  PutU32(header, kFrameMagic);
  PutU32(header, static_cast<uint32_t>(kDefaultMaxFrameBytes + 1));
  ASSERT_TRUE(WriteAll(fd, header));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // EOF: server closed.
  ::close(fd);

  // Garbage magic: same fate.
  fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, ToBytes("GET / HTTP/1.1\r\n\r\n")));
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);
  ::close(fd);

  // The server shrugs it off.
  EXPECT_TRUE(server_->running());
  auto client = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  EXPECT_TRUE(client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  client->Close();
}

TEST_F(RpcTest, ZeroSenderGarbageSignatureFrameIsDropped) {
  // First put an entry in the log, so the read below would be served.
  auto client = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  client->Close();

  // A valid read request in an envelope that claims the zero sender and
  // carries a signature that cannot be recovered.
  RpcRequest request;
  request.rpc_id = 77;
  request.op = std::string(kOpReadTenant);
  request.body = EncodeTenantReadBody(kTenant, EntryIndex{0, 0});
  SignedEnvelope envelope;
  envelope.sender = Address::Zero();
  envelope.payload = request.Encode();
  envelope.signature.r = U256::Zero();
  envelope.signature.s = U256::One();
  Counter* malformed = deployment_->telemetry().metrics.GetCounter(
      "wedge.rpc.malformed_frames");
  const uint64_t malformed_before = malformed->Value();

  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, EncodeFrame(envelope.Serialize())));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // Closed with no reply.
  ::close(fd);
  EXPECT_EQ(malformed->Value(), malformed_before + 1);
  EXPECT_TRUE(server_->running());
}

TEST_F(RpcTest, WellSignedUndecodableRequestGetsTypedErrorReply) {
  // A well-signed envelope whose payload has a readable rpc_id but is
  // otherwise garbage: the server must answer with an error response
  // carrying that rpc_id (not crash, not stay silent).
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  Bytes payload;
  PutU64(payload, 5555);
  PutU32(payload, 0xFFFFFFFF);  // Absurd op-name length.
  SignedEnvelope envelope = SignedEnvelope::Create(publisher, payload);
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, EncodeFrame(envelope.Serialize())));

  auto reply = ReadOneFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto reply_env = SignedEnvelope::Deserialize(*reply);
  ASSERT_TRUE(reply_env.ok());
  EXPECT_TRUE(reply_env->Verify());
  EXPECT_EQ(reply_env->sender, server_key_->address());
  auto response = RpcResponse::Decode(reply_env->payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rpc_id, 5555u);
  EXPECT_FALSE(response->ok);
  EXPECT_FALSE(response->error.empty());
  ::close(fd);
}

TEST_F(RpcTest, ClientReconnectsAfterServerRestart) {
  TcpClientConfig client_config;
  client_config.port = server_->port();
  client_config.rpc_timeout = 2 * kMicrosPerSecond;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       client_config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(client.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());

  uint16_t port = server_->port();
  server_->Shutdown();
  EXPECT_FALSE(client.ReadOneForTenant(kTenant, EntryIndex{0, 0}).ok());

  // Same node, same port: the client must redial with backoff and recover.
  RpcServerConfig server_config;
  server_config.port = port;
  RpcServer revived(Handler(), *server_key_, server_config);
  ASSERT_TRUE(revived.Start().ok());
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    recovered = client.ReadOneForTenant(kTenant, EntryIndex{0, 0}).ok();
    if (!recovered) ::usleep(50'000);
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client.reconnects(), 1u);
  client.Close();
  revived.Shutdown();
}

TEST_F(RpcTest, DrainServesPipelinedRequestsAcrossHalfCloseAndRestart) {
  // A client pipelines requests and half-closes its write side before
  // reading any reply. The server has already TCP-acked those requests;
  // dropping the produced responses on EOF (or on shutdown) would be
  // acks-then-drops, which a restarting shard must never do. Big replies
  // make sure the write buffers cannot be flushed in one pass, so the
  // drain path itself is on the hook.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  std::vector<AppendRequest> big;
  std::vector<uint32_t> offsets;
  // One full batch (batch_size=4) of fat entries: every readBatch reply
  // below is ~1MB, so six pipelined replies cannot hide in the kernel
  // socket buffers while the peer is not reading.
  for (int i = 0; i < 4; ++i) {
    big.push_back(AppendRequest::Make(publisher, seq++, ToBytes("big"),
                                      Bytes(256 * 1024, 0xAB)));
    offsets.push_back(static_cast<uint32_t>(i));
  }
  {
    auto setup_client = MakeClient();
    ASSERT_TRUE(setup_client->Connect().ok());
    ASSERT_TRUE(setup_client->AppendForTenant(kTenant, big).ok());
    setup_client->Close();
  }

  constexpr int kPipelined = 6;
  Bytes wire;
  for (int i = 0; i < kPipelined; ++i) {
    RpcRequest request;
    request.rpc_id = 100 + static_cast<uint64_t>(i);
    request.op = std::string(kOpReadBatchTenant);
    request.body = EncodeTenantReadBatchBody(kTenant, 0, offsets);
    SignedEnvelope envelope =
        SignedEnvelope::Create(publisher, request.Encode());
    Bytes frame = EncodeFrame(envelope.Serialize());
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, wire));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // Server sees EOF immediately.

  // One decoder across all replies: back-to-back frames straddle read
  // chunks, so per-call decoders (ReadOneFrame) would drop the tail.
  FrameDecoder decoder;
  uint8_t rbuf[64 * 1024];
  auto read_next_frame = [&]() -> Result<Bytes> {
    while (true) {
      Bytes payload;
      auto got = decoder.Next(&payload);
      if (!got.ok()) return got.status();
      if (*got) return payload;
      ssize_t n = ::read(fd, rbuf, sizeof(rbuf));
      if (n == 0) return Status::Unavailable("peer closed");
      if (n < 0) return Status::Timeout("read timed out");
      decoder.Feed(rbuf, static_cast<size_t>(n));
    }
  };
  std::set<uint64_t> rpc_ids;
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = read_next_frame();
    ASSERT_TRUE(reply.ok())
        << "reply " << i << " lost: " << reply.status().ToString();
    auto envelope = SignedEnvelope::Deserialize(*reply);
    ASSERT_TRUE(envelope.ok());
    EXPECT_TRUE(envelope->Verify());
    auto response = RpcResponse::Decode(envelope->payload);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok) << response->error;
    rpc_ids.insert(response->rpc_id);
  }
  EXPECT_EQ(rpc_ids.size(), static_cast<size_t>(kPipelined));
  ::close(fd);

  // Restart path: graceful shutdown, then revive on the same port. The
  // drained node must come back serving the same log.
  uint16_t port = server_->port();
  server_->Shutdown();
  RpcServerConfig server_config;
  server_config.port = port;
  RpcServer revived(Handler(), *server_key_, server_config);
  ASSERT_TRUE(revived.Start().ok());
  auto client = MakeClient();
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    auto read = client->ReadOneForTenant(kTenant, EntryIndex{0, 0});
    recovered = read.ok() && read->Verify(engine_address());
    if (!recovered) ::usleep(50'000);
  }
  EXPECT_TRUE(recovered);
  client->Close();
  revived.Shutdown();
}

TEST_F(RpcTest, ShutdownIsIdempotentAndRefusesNewWork) {
  auto client = MakeClient(/*pool_size=*/1, /*timeout=*/kMicrosPerSecond);
  ASSERT_TRUE(client->Connect().ok());
  server_->Shutdown();
  server_->Shutdown();  // Idempotent.
  EXPECT_FALSE(server_->running());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  EXPECT_FALSE(client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  client->Close();
  client->Close();  // Also idempotent.
}

TEST_F(RpcTest, SilentPeerTimesOutWithDeadlineExceeded) {
  // A peer that takes the connection and never answers (the omission
  // surface, §4.7): the call must end in kDeadlineExceeded, never hang
  // and never be retried into a duplicate.
  uint16_t port = 0;
  int listener = ListenLoopback(&port);
  ASSERT_GE(listener, 0);
  TcpClientConfig config;
  config.port = port;
  config.rpc_timeout = 200 * kMicrosPerMilli;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto result = client.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_EQ(client.retries(), 0u);
  client.Close();
  ::close(listener);
}

TEST_F(RpcTest, ReplyFromUnpinnedKeyIsDiscarded) {
  // The client pins the transport address replies must be signed with. A
  // well-formed reply signed by the real server key is, to a client that
  // pinned another address, an impostor's reply: counted and dropped,
  // never delivered.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  {
    auto seeder = MakeClient();
    ASSERT_TRUE(
        seeder->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
    seeder->Close();
  }
  TcpClientConfig config;
  config.port = server_->port();
  config.rpc_timeout = 300 * kMicrosPerMilli;
  TcpNodeClient pinned(KeyPair::FromSeed(0xC11E),
                       KeyPair::FromSeed(666).address(), config);
  ASSERT_TRUE(pinned.Connect().ok());
  auto result = pinned.ReadOneForTenant(kTenant, EntryIndex{0, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kDeadlineExceeded);
  EXPECT_EQ(pinned.discarded_responses(), 1u);
  // The server did answer; only the client refused the signer.
  EXPECT_EQ(server_->requests_served(), 2u);
  pinned.Close();
}

TEST_F(RpcTest, UnknownRpcIdFromFakeServerIsDiscarded) {
  // A raw-socket fake server answers a read with a maximally plausible
  // stale reply — signed by the pinned key, carrying a decodable
  // Stage1Response — under the wrong rpc_id, then with the genuine reply.
  // The client must skip the stale one and hand the waiter the answer
  // for the rpc_id it actually issued.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto seeded = deployment_->engine().Append(kTenant,
                                             MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(seeded.ok());
  const Bytes stale_body = (*seeded)[0].Serialize();
  const Bytes genuine_body = (*seeded)[1].Serialize();

  uint16_t port = 0;
  int listener = ListenLoopback(&port);
  ASSERT_GE(listener, 0);
  std::thread fake([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    auto frame = ReadOneFrame(fd);
    if (frame.ok()) {
      auto envelope = SignedEnvelope::Deserialize(*frame);
      auto request = envelope.ok() ? RpcRequest::Decode(envelope->payload)
                                   : Result<RpcRequest>(envelope.status());
      if (request.ok()) {
        Bytes wire = EncodeFrame(
            SignedEnvelope::Create(*server_key_,
                                   RpcResponse::Success(request->rpc_id + 1000,
                                                        stale_body)
                                       .Encode())
                .Serialize());
        Append(wire,
               EncodeFrame(SignedEnvelope::Create(
                               *server_key_,
                               RpcResponse::Success(request->rpc_id,
                                                    genuine_body)
                                   .Encode())
                               .Serialize()));
        WriteAll(fd, wire);
      }
    }
    // Hold the socket until the client hangs up.
    uint8_t buf[64];
    while (::read(fd, buf, sizeof(buf)) > 0) {
    }
    ::close(fd);
  });

  TcpClientConfig config;
  config.port = port;
  config.rpc_timeout = 2 * kMicrosPerSecond;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  auto read = client.ReadOneForTenant(kTenant, (*seeded)[1].index);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->Serialize(), genuine_body);
  EXPECT_EQ(read->index, (EntryIndex{0, 1}));  // Not the stale {0,0}.
  EXPECT_EQ(client.discarded_responses(), 1u);
  client.Close();
  fake.join();
  ::close(listener);
}

TEST_F(RpcTest, OversizeRequestFailsLocallyBeforeAnyByteIsWritten) {
  uint16_t port = 0;
  int listener = ListenLoopback(&port);
  ASSERT_GE(listener, 0);
  TcpClientConfig config;
  config.port = port;
  config.max_frame_bytes = 2048;
  TcpNodeClient capped(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(capped.Connect().ok());
  int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);

  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  std::vector<AppendRequest> batch;
  batch.push_back(AppendRequest::Make(publisher, 0, ToBytes("k"),
                                      Bytes(4096, 0x55)));  // Past the cap.
  auto result = capped.AppendForTenant(kTenant, batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kInvalidArgument);
  EXPECT_EQ(capped.retries(), 0u);

  // Nothing reached the peer: a short read times out with no data.
  timeval tv{.tv_sec = 0, .tv_usec = 200'000};
  setsockopt(peer, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  uint8_t buf[16];
  EXPECT_LT(::read(peer, buf, sizeof(buf)), 0);
  capped.Close();
  ::close(peer);
  ::close(listener);
}

}  // namespace
}  // namespace wedge
