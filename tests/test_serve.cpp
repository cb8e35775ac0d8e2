// Serving subsystem tests: the chunked streaming codec API and the
// ebct_serve daemon core. The headline contract mirrors the pager's —
// streamed output is bitwise identical to the one-shot codec path for every
// registered spec, at any feed granularity, under any session concurrency —
// plus the failure matrix: budget rejects (429), malformed frames (400),
// oversize frames (413), and mid-stream client disconnects all fail loudly
// without wedging the server.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/codec_registry.hpp"
#include "nn/streaming.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/test_util.hpp"

namespace ebct::serve {
namespace {

// Small window so a few-thousand-float payload spans several blocks and a
// ragged tail; must stay >= nn::kMinWindowElems.
constexpr std::size_t kTestWindow = 4096;

// Every registered codec family, with parameters the registry accepts. The
// policy spec routes the streamed layer (nn::kStreamLayer == "stream")
// through two different members to exercise composite dispatch.
const std::vector<std::string>& all_specs() {
  static const std::vector<std::string> specs = {
      "sz:eb=1e-3", "lossless", "jpeg-act:quality=50", "none",
      "policy:stream*=sz:eb=1e-3;*=lossless"};
  return specs;
}

std::vector<float> make_payload(std::size_t n, std::uint64_t seed) {
  // Relu-like mix (about a third exact zeros) — the distribution the codecs
  // are tuned for, and one where sz/lossless take different paths.
  tensor::Tensor t =
      testutil::relu_like_tensor(tensor::Shape{n}, seed, /*zero_fraction=*/0.35);
  return std::vector<float>(t.data(), t.data() + n);
}

std::shared_ptr<nn::ActivationCodec> make_codec(const std::string& spec) {
  return core::CodecRegistry::instance().create(spec);
}

nn::CodecFactory registry_factory() {
  return [](const std::string& spec) { return make_codec(spec); };
}

std::vector<std::uint8_t> reference_container(const std::string& spec,
                                              const std::vector<float>& payload) {
  return nn::streaming_encode_all(make_codec(spec), spec, payload.data(),
                                  payload.size(), kTestWindow);
}

// The decoded floats the one-shot codec path produces: each window encoded
// and decoded independently through encode("stream", nchw(1,1,1,n)).
std::vector<float> reference_roundtrip(const std::string& spec,
                                       const std::vector<float>& payload) {
  auto codec = make_codec(spec);
  std::vector<float> out;
  out.reserve(payload.size());
  for (std::size_t off = 0; off < payload.size(); off += kTestWindow) {
    const std::size_t n = std::min(kTestWindow, payload.size() - off);
    tensor::Tensor window(tensor::Shape::nchw(1, 1, 1, n));
    std::memcpy(window.data(), payload.data() + off, n * sizeof(float));
    nn::EncodedActivation enc = codec->encode(nn::kStreamLayer, window);
    enc.shape = window.shape();
    enc.layer = nn::kStreamLayer;
    tensor::Tensor dec = codec->decode(enc);
    out.insert(out.end(), dec.data(), dec.data() + dec.numel());
  }
  return out;
}

std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/ebct-ts-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Server bound to a fresh socket; stopped (and metrics reset) on teardown.
struct ServerFixture {
  explicit ServerFixture(ServerConfig cfg = {}) {
    cfg.socket_path = test_socket_path();
    cfg.window_elems = cfg.window_elems == nn::kDefaultWindowElems ? kTestWindow
                                                                   : cfg.window_elems;
    server = std::make_unique<Server>(cfg);
    obs::ServeMetrics::instance().reset();
    server->start();
  }
  ~ServerFixture() {
    server->stop();
    obs::ServeMetrics::instance().reset();
  }
  Client client() { return Client(server->config().socket_path); }

  // Connection teardown (close + gauge decrement) trails the DONE frame by
  // a few microseconds; wait it out before asserting on gauges.
  void quiesce() {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((server->active_connections() != 0 ||
            obs::ServeMetrics::instance().snapshot().active_sessions != 0) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::unique_ptr<Server> server;
};

// Reader over a byte buffer that hands out at most `chunk` bytes per call —
// the feed-granularity axis of the matrix (0 = whatever the pump asks for).
PullReader chunked_reader(const std::vector<std::uint8_t>& bytes, std::size_t chunk,
                          std::size_t* cursor) {
  return [&bytes, chunk, cursor](std::uint8_t* buf, std::size_t cap) {
    const std::size_t limit = chunk == 0 ? cap : std::min(cap, chunk);
    const std::size_t n = std::min(limit, bytes.size() - *cursor);
    std::memcpy(buf, bytes.data() + *cursor, n);
    *cursor += n;
    return n;
  };
}

PushWriter vector_writer(std::vector<std::uint8_t>* out) {
  return [out](const std::uint8_t* data, std::size_t n) {
    out->insert(out->end(), data, data + n);
  };
}

std::vector<std::uint8_t> as_bytes(const std::vector<float>& v) {
  std::vector<std::uint8_t> b(v.size() * sizeof(float));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

std::vector<float> as_floats(const std::vector<std::uint8_t>& b) {
  std::vector<float> v(b.size() / sizeof(float));
  std::memcpy(v.data(), b.data(), v.size() * sizeof(float));
  return v;
}

// Polls `cond` every millisecond for up to 10 s; a condition that never
// holds falls through to the caller's assertions instead of hanging.
template <class Cond>
void wait_until(const Cond& cond) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cond() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// --- The streaming API itself (no server): feed-granularity matrix. ----------

TEST(StreamingCodecTest, ChunkSizeInvisibleInContainerBytesForEverySpec) {
  // 2 full windows + a ragged tail; enough zeros and structure for the
  // codecs to produce non-trivial blocks.
  const std::vector<float> payload = make_payload(2 * kTestWindow + 1807, 42);
  const std::vector<std::uint8_t> raw = as_bytes(payload);

  for (const std::string& spec : all_specs()) {
    const std::vector<std::uint8_t> ref = reference_container(spec, payload);
    ASSERT_GT(ref.size(), 16u) << spec;

    for (const std::size_t chunk : {std::size_t{1024}, std::size_t{64 * 1024}, raw.size()}) {
      std::vector<std::uint8_t> got;
      nn::StreamingEncoder enc(make_codec(spec), spec, kTestWindow,
                               [&got](const std::uint8_t* d, std::size_t n) {
                                 got.insert(got.end(), d, d + n);
                               });
      for (std::size_t off = 0; off < raw.size(); off += chunk)
        enc.feed_bytes(raw.data() + off, std::min(chunk, raw.size() - off));
      enc.finish();
      ASSERT_EQ(got, ref) << spec << " chunk " << chunk;
    }
  }
}

TEST(StreamingCodecTest, DecodeMatchesOneShotCodecPathForEverySpec) {
  const std::vector<float> payload = make_payload(2 * kTestWindow + 333, 43);
  for (const std::string& spec : all_specs()) {
    const std::vector<std::uint8_t> container = reference_container(spec, payload);
    const std::vector<float> expect = reference_roundtrip(spec, payload);
    ASSERT_EQ(expect.size(), payload.size()) << spec;

    for (const std::size_t chunk :
         {std::size_t{1024}, std::size_t{64 * 1024}, container.size()}) {
      std::vector<float> got;
      nn::StreamingDecoder dec(registry_factory(),
                               [&got](const float* d, std::size_t n) {
                                 got.insert(got.end(), d, d + n);
                               });
      for (std::size_t off = 0; off < container.size(); off += chunk)
        dec.feed(container.data() + off, std::min(chunk, container.size() - off));
      dec.finish();
      ASSERT_EQ(dec.spec(), spec);
      ASSERT_EQ(got.size(), expect.size()) << spec << " chunk " << chunk;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], expect[i]) << spec << " chunk " << chunk << " elem " << i;
    }
  }
}

TEST(StreamingCodecTest, MalformedContainersFailLoudly) {
  const std::vector<float> payload = make_payload(kTestWindow / 2, 44);
  std::vector<std::uint8_t> container = reference_container("lossless", payload);
  const auto drop = [](const float*, std::size_t) {};

  {  // bad magic
    std::vector<std::uint8_t> bad = container;
    bad[0] ^= 0x20;
    nn::StreamingDecoder dec(registry_factory(), drop);
    EXPECT_THROW(dec.feed(bad.data(), bad.size()), std::runtime_error);
  }
  {  // truncated mid-block
    nn::StreamingDecoder dec(registry_factory(), drop);
    dec.feed(container.data(), container.size() / 2);
    EXPECT_THROW(dec.finish(), std::runtime_error);
  }
  {  // trailing garbage after the trailer
    std::vector<std::uint8_t> bad = container;
    bad.push_back(0x5a);
    nn::StreamingDecoder dec(registry_factory(), drop);
    EXPECT_THROW(
        {
          dec.feed(bad.data(), bad.size());
          dec.finish();
        },
        std::runtime_error);
  }
  {  // trailer element count contradicting the blocks
    std::vector<std::uint8_t> bad = container;
    bad[bad.size() - 8] ^= 0x01;
    nn::StreamingDecoder dec(registry_factory(), drop);
    EXPECT_THROW(
        {
          dec.feed(bad.data(), bad.size());
          dec.finish();
        },
        std::runtime_error);
  }
}

// --- ServerConfig::from_env: size envs parse digits only. --------------------

/// Sets one env var for a scope and puts the previous value back after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_.c_str(), old_->c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

TEST(ServerConfigTest, FromEnvRejectsAnythingButDigits) {
  // "-1" must not wrap to 2^64-1, an unlimited budget.
  for (const char* bad : {"-1", "+5", " 5", "5x", "5 ", "0x10", "18446744073709551616"}) {
    ScopedEnv env("EBCT_SERVE_TENANT_BUDGET", bad);
    EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument) << "accepted '" << bad << "'";
  }
  for (const char* name : {"EBCT_SERVE_WINDOW", "EBCT_SERVE_MAX_FRAME", "EBCT_SERVE_DRAIN_MS"}) {
    ScopedEnv env(name, "-1");
    EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument) << name;
  }
  ScopedEnv drain("EBCT_SERVE_DRAIN_MS", "4294967296");  // past int
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
}

TEST(ServerConfigTest, FromEnvParsesPlainIntegers) {
  {
    ScopedEnv env("EBCT_SERVE_TENANT_BUDGET", "0");
    EXPECT_EQ(ServerConfig::from_env().tenant_budget_bytes, 0u);
  }
  ScopedEnv budget("EBCT_SERVE_TENANT_BUDGET", "123");
  ScopedEnv drain("EBCT_SERVE_DRAIN_MS", "250");
  const ServerConfig cfg = ServerConfig::from_env();
  EXPECT_EQ(cfg.tenant_budget_bytes, 123u);
  EXPECT_EQ(cfg.drain_grace_ms, 250);
}

TEST(ProtocolTest, SerializeOpenRejectsValuesPastTheU16LengthField) {
  // A truncated length field with every byte still written would frame
  // fields the caller never sent; the longest legal value round-trips.
  const std::string longest(0xffff, 't');
  const std::vector<std::uint8_t> ok = serialize_open({Op::kEncode, longest, "sz", 7});
  const OpenRequest back = parse_open(ok);
  EXPECT_EQ(back.tenant, longest);
  EXPECT_EQ(back.spec, "sz");
  EXPECT_EQ(back.window_elems, 7u);
  const std::string too_long(0x10000, 't');
  EXPECT_THROW(serialize_open({Op::kEncode, too_long, "sz", 0}), std::invalid_argument);
  EXPECT_THROW(serialize_open({Op::kEncode, "t", too_long, 0}), std::invalid_argument);
}

// --- Served requests: spec x chunk matrix over a live server. ----------------

TEST(ServeTest, ServedEncodeAndDecodeBitwiseMatchOneShotForEverySpecAndChunk) {
  ServerFixture fx;
  const std::vector<float> payload = make_payload(2 * kTestWindow + 901, 45);
  const std::vector<std::uint8_t> raw = as_bytes(payload);

  for (const std::string& spec : all_specs()) {
    const std::vector<std::uint8_t> ref = reference_container(spec, payload);
    const std::vector<float> expect = reference_roundtrip(spec, payload);

    for (const std::size_t chunk : {std::size_t{1024}, std::size_t{64 * 1024}, raw.size()}) {
      Client client = fx.client();
      std::vector<std::uint8_t> container;
      std::size_t cursor = 0;
      TransferStats st =
          client.encode("matrix", spec, kTestWindow,
                        chunked_reader(raw, chunk, &cursor), vector_writer(&container));
      ASSERT_EQ(container, ref) << spec << " chunk " << chunk;
      EXPECT_EQ(st.bytes_in, raw.size());
      EXPECT_EQ(st.bytes_out, container.size());
      EXPECT_EQ(st.window_elems, kTestWindow);

      std::vector<std::uint8_t> decoded;
      cursor = 0;
      client.decode("matrix", chunked_reader(container, chunk, &cursor),
                    vector_writer(&decoded));
      const std::vector<float> got = as_floats(decoded);
      ASSERT_EQ(got.size(), expect.size()) << spec << " chunk " << chunk;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], expect[i]) << spec << " chunk " << chunk << " elem " << i;
    }
  }

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.requests, all_specs().size() * 3 * 2);
  EXPECT_EQ(s.rejects, 0u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.active_sessions, 0u);
  EXPECT_GT(s.latency_percentile_ns(0.5), 0.0);
}

TEST(ServeTest, FourConcurrentSessionsStayBitwiseAndPeakGaugeSeesThem) {
  ServerFixture fx;
  constexpr int kClients = 4;

  // Gate every client's first data read until the server has had all four
  // sessions open at once, so the peak-sessions gauge provably hits 4. OPEN
  // goes out ahead of the data, so a client cannot wait for its own
  // OPEN_OK; the peak latches, where the first client through the gate
  // may finish before a slower one samples the live count.
  const auto all_open = [] {
    return obs::ServeMetrics::instance().snapshot().peak_sessions >=
           static_cast<std::uint64_t>(kClients);
  };
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const std::string spec = all_specs()[static_cast<std::size_t>(c) %
                                             all_specs().size()];
        const std::vector<float> payload =
            make_payload(kTestWindow + 517 * static_cast<std::size_t>(c + 1),
                         100 + static_cast<std::uint64_t>(c));
        const std::vector<std::uint8_t> raw = as_bytes(payload);
        const std::vector<std::uint8_t> ref = reference_container(spec, payload);

        Client client = fx.client();
        bool gated = false;
        std::size_t cursor = 0;
        PullReader inner = chunked_reader(raw, 1024, &cursor);
        PullReader reader = [&](std::uint8_t* buf, std::size_t cap) {
          if (!gated) {
            gated = true;
            wait_until(all_open);
          }
          return inner(buf, cap);
        };
        std::vector<std::uint8_t> container;
        client.encode("tenant" + std::to_string(c), spec, kTestWindow, reader,
                      vector_writer(&container));
        if (container != ref) failures[static_cast<std::size_t>(c)] = "bytes diverged";
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.peak_sessions, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.active_sessions, 0u);
}

// --- Failure matrix. ---------------------------------------------------------

TEST(ServeTest, TenantOverBudgetGetsBackpressureNotQueueing) {
  ServerConfig cfg;
  // Room for exactly one encode session per tenant (cap = 3*window*4 + 4).
  cfg.tenant_budget_bytes = 3 * kTestWindow * sizeof(float) + 512;
  ServerFixture fx(cfg);

  const std::vector<float> payload = make_payload(kTestWindow, 46);
  const std::vector<std::uint8_t> raw = as_bytes(payload);

  // First session: admitted, then parked on a gated reader so it holds its
  // budget charge while the second request arrives.
  std::atomic<bool> release{false};
  std::string holder_error;
  std::thread holder([&] {
    try {
      Client client = fx.client();
      std::size_t cursor = 0;
      PullReader inner = chunked_reader(raw, 0, &cursor);
      PullReader reader = [&](std::uint8_t* buf, std::size_t cap) {
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return inner(buf, cap);
      };
      std::vector<std::uint8_t> out;
      client.encode("acme", "lossless", kTestWindow, reader, vector_writer(&out));
    } catch (const std::exception& e) {
      holder_error = e.what();
    }
  });
  // OPEN goes out ahead of the data, so the holder's admission shows on the
  // server's ledger, not in its reader.
  wait_until([&] { return fx.server->tenant_charged_bytes("acme") > 0; });

  // Same tenant: 429. The charge is held by the running session.
  try {
    Client client = fx.client();
    std::vector<std::uint8_t> out;
    client.encode_bytes("acme", "lossless", kTestWindow, raw);
    FAIL() << "expected a 429 reject";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), kErrOverBudget);
  }

  // A different tenant has its own ledger and sails through.
  {
    Client client = fx.client();
    const std::vector<std::uint8_t> out =
        client.encode_bytes("globex", "lossless", kTestWindow, raw);
    EXPECT_EQ(out, reference_container("lossless", payload));
  }

  release.store(true);
  holder.join();
  EXPECT_EQ(holder_error, "");

  // The released charge readmits the tenant.
  {
    Client client = fx.client();
    const std::vector<std::uint8_t> out =
        client.encode_bytes("acme", "lossless", kTestWindow, raw);
    EXPECT_EQ(out, reference_container("lossless", payload));
  }

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.rejects, 1u);
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(fx.server->tenant_charged_bytes("acme"), 0u);
}

int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

std::uint16_t read_error_code(int fd) {
  Frame f;
  EXPECT_TRUE(read_frame(fd, f, kDefaultMaxFrame));
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_GE(f.payload.size(), 2u);
  return get_u16(f.payload.data());
}

TEST(ServeTest, MalformedFramesRejectedWith400) {
  ServerFixture fx;
  const std::string& path = fx.server->config().socket_path;

  {  // DATA before OPEN
    const int fd = raw_connect(path);
    const std::uint8_t junk[4] = {1, 2, 3, 4};
    write_frame(fd, FrameType::kData, junk, sizeof(junk));
    EXPECT_EQ(read_error_code(fd), kErrMalformed);
    ::close(fd);
  }
  {  // OPEN with an unknown op
    const int fd = raw_connect(path);
    std::vector<std::uint8_t> open = serialize_open(
        {Op::kEncode, "t", "lossless", static_cast<std::uint32_t>(kTestWindow)});
    open[0] = 7;
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    EXPECT_EQ(read_error_code(fd), kErrMalformed);
    ::close(fd);
  }
  {  // OPEN with trailing bytes
    const int fd = raw_connect(path);
    std::vector<std::uint8_t> open = serialize_open(
        {Op::kEncode, "t", "lossless", static_cast<std::uint32_t>(kTestWindow)});
    open.push_back(0xff);
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    EXPECT_EQ(read_error_code(fd), kErrMalformed);
    ::close(fd);
  }
  {  // unknown codec spec -> 404
    const int fd = raw_connect(path);
    const std::vector<std::uint8_t> open = serialize_open(
        {Op::kEncode, "t", "no-such-codec", static_cast<std::uint32_t>(kTestWindow)});
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    EXPECT_EQ(read_error_code(fd), kErrUnknownSpec);
    ::close(fd);
  }
  {  // frame over the size cap -> 413
    const int fd = raw_connect(path);
    std::vector<std::uint8_t> header;
    put_u32(header, static_cast<std::uint32_t>(fx.server->config().max_frame + 1));
    header.push_back(static_cast<std::uint8_t>(FrameType::kOpen));
    write_all(fd, header.data(), header.size());
    EXPECT_EQ(read_error_code(fd), kErrFrameTooBig);
    ::close(fd);
  }
  {  // garbage EBCS payload on a decode request -> 400
    const int fd = raw_connect(path);
    const std::vector<std::uint8_t> open = serialize_open({Op::kDecode, "t", "", 0});
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    Frame ok;
    ASSERT_TRUE(read_frame(fd, ok, kDefaultMaxFrame));
    ASSERT_EQ(ok.type, FrameType::kOpenOk);
    // The verdict follows the DATA frame at once (the server then closes,
    // so a FINISH written after it would race that close).
    const std::uint8_t junk[16] = {'N', 'O', 'P', 'E'};
    write_frame(fd, FrameType::kData, junk, sizeof(junk));
    EXPECT_EQ(read_error_code(fd), kErrMalformed);
    ::close(fd);
  }

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.errors, 6u);
  EXPECT_EQ(s.requests, 0u);

  // The server is still healthy after the abuse.
  Client client = fx.client();
  const std::vector<float> payload = make_payload(1024, 47);
  const std::vector<std::uint8_t> out =
      client.encode_bytes("t", "lossless", kTestWindow, as_bytes(payload));
  EXPECT_EQ(out, reference_container("lossless", payload));
}

TEST(ServeTest, MidStreamDisconnectReleasesTheSessionAndItsBudget) {
  ServerConfig cfg;
  cfg.tenant_budget_bytes = 3 * kTestWindow * sizeof(float) + 512;  // one session
  ServerFixture fx(cfg);

  {
    const int fd = raw_connect(fx.server->config().socket_path);
    const std::vector<std::uint8_t> open = serialize_open(
        {Op::kEncode, "acme", "lossless", static_cast<std::uint32_t>(kTestWindow)});
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    Frame ok;
    ASSERT_TRUE(read_frame(fd, ok, kDefaultMaxFrame));
    ASSERT_EQ(ok.type, FrameType::kOpenOk);
    const std::vector<float> some = make_payload(kTestWindow / 2, 48);
    const std::vector<std::uint8_t> bytes = as_bytes(some);
    write_frame(fd, FrameType::kData, bytes.data(), bytes.size());
    ::close(fd);  // vanish mid-request
  }

  // The handler notices, errors the request, and releases the tenant charge.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(fx.server->active_connections(), 0u);
  EXPECT_EQ(fx.server->tenant_charged_bytes("acme"), 0u);

  // The same tenant's budget is free again (a leaked charge would 429 here).
  {  // scoped: a kept connection would hold quiesce() below
    Client client = fx.client();
    const std::vector<float> payload = make_payload(kTestWindow, 49);
    const std::vector<std::uint8_t> out =
        client.encode_bytes("acme", "lossless", kTestWindow, as_bytes(payload));
    EXPECT_EQ(out, reference_container("lossless", payload));
  }

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_GE(s.errors, 1u);
  EXPECT_EQ(s.active_sessions, 0u);
}

TEST(ServeTest, DecodeBudgetRechargedOnceHeaderDeclaresItsWindow) {
  // Decode admission happens before any container bytes arrive, so it can
  // only charge the default-window floor (~2.3 MB). Once the EBCS header
  // parses, the actual resident cap — which scales with the client-chosen
  // window_elems — must be re-charged against the tenant ledger and bounce
  // with a 429 mid-stream, or the decode path bypasses the budget entirely.
  ServerConfig cfg;
  cfg.tenant_budget_bytes = 4u << 20;  // above the floor, far below a 1Mi-elem window
  ServerFixture fx(cfg);

  // Hand-crafted EBCS header declaring window_elems = 1Mi (cap ~21 MB).
  std::vector<std::uint8_t> header = {'E', 'B', 'C', 'S', 1, 0};
  const std::string spec = "none";
  put_u16(header, static_cast<std::uint16_t>(spec.size()));
  header.insert(header.end(), spec.begin(), spec.end());
  put_u32(header, 1u << 20);

  const int fd = raw_connect(fx.server->config().socket_path);
  const std::vector<std::uint8_t> open = serialize_open({Op::kDecode, "acme", "", 0});
  write_frame(fd, FrameType::kOpen, open.data(), open.size());
  Frame ok;
  ASSERT_TRUE(read_frame(fd, ok, kDefaultMaxFrame));
  ASSERT_EQ(ok.type, FrameType::kOpenOk);
  // The 429 follows the header's DATA frame at once, before any FINISH
  // (the server then closes, so a FINISH written after it would race that).
  write_frame(fd, FrameType::kData, header.data(), header.size());
  EXPECT_EQ(read_error_code(fd), kErrOverBudget);
  ::close(fd);

  fx.quiesce();
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.rejects, 1u);
  // The re-charged cap is released with the failed request.
  EXPECT_EQ(fx.server->tenant_charged_bytes("acme"), 0u);

  // A modest-window container under the same budget still decodes fine.
  const std::vector<float> payload = make_payload(kTestWindow, 53);
  const std::vector<std::uint8_t> container = reference_container("none", payload);
  Client client = fx.client();
  std::vector<std::uint8_t> decoded;
  std::size_t cursor = 0;
  client.decode("acme", chunked_reader(container, 0, &cursor), vector_writer(&decoded));
  EXPECT_EQ(as_floats(decoded), reference_roundtrip("none", payload));
}

TEST(ServeTest, StopAbandonsWritesToAStalledReader) {
  // A client that stops *reading* leaves the server's data-frame writes
  // blocked on a full socket buffer; drain_grace_ms must bound those too,
  // or stop() joins the handler forever and SIGTERM shutdown hangs.
  ServerConfig cfg;
  cfg.drain_grace_ms = 300;
  ServerFixture fx(cfg);

  const int fd = raw_connect(fx.server->config().socket_path);
  const std::vector<std::uint8_t> open = serialize_open(
      {Op::kEncode, "t", "none", static_cast<std::uint32_t>(kTestWindow)});
  write_frame(fd, FrameType::kOpen, open.data(), open.size());
  Frame ok;
  ASSERT_TRUE(read_frame(fd, ok, kDefaultMaxFrame));
  ASSERT_EQ(ok.type, FrameType::kOpenOk);

  // Flood input without ever reading output. "none" emits about one output
  // byte per input byte, so well past the socket buffers (~a few hundred
  // KB) the pool task wedges in a data-frame write.
  const std::vector<float> window = make_payload(kTestWindow, 51);
  std::vector<std::uint8_t> blob;
  for (int i = 0; i < 64; ++i)
    append_frame(blob, FrameType::kData,
                 reinterpret_cast<const std::uint8_t*>(window.data()),
                 window.size() * sizeof(float));
  std::size_t off = 0;
  int stalls = 0;
  while (off < blob.size() && stalls < 20) {
    const ssize_t n = ::send(fd, blob.data() + off,
                             std::min<std::size_t>(blob.size() - off, 64 * 1024),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      stalls = 0;
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    ++stalls;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const auto t0 = std::chrono::steady_clock::now();
  fx.server->stop();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(fx.server->running());
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ::close(fd);
}

TEST(ServeTest, FinishedConnectionsAreReapedWhileRunning) {
  // A long-lived daemon must not accumulate one finished-but-joinable
  // handler thread per completed request until shutdown: the accept loop
  // reaps done connections on every poll slice (<= 100 ms apart).
  ServerFixture fx;
  const std::vector<float> payload = make_payload(1024, 52);
  for (int i = 0; i < 8; ++i) {
    Client client = fx.client();
    (void)client.encode_bytes("t", "none", kTestWindow, as_bytes(payload));
  }
  fx.quiesce();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->tracked_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(fx.server->tracked_connections(), 0u);
  EXPECT_TRUE(fx.server->running());  // reaping happened without stop()
}

TEST(ServeTest, StopDrainsAndReleasesEverything) {
  auto fx = std::make_unique<ServerFixture>();
  Client client = fx->client();
  const std::vector<float> payload = make_payload(kTestWindow, 50);
  (void)client.encode_bytes("t", "none", kTestWindow, as_bytes(payload));
  const std::string path = fx->server->config().socket_path;
  fx->server->stop();
  EXPECT_FALSE(fx->server->running());
  fx->server->stop();  // idempotent
  fx.reset();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);  // socket file removed
}

TEST(ServeTest, CorruptBlockInAClientContainerIs400) {
  // One block of kTestWindow - 1 floats; flipping bit 0 of its numel field
  // (4095 -> 4094) passes the container checks and fails inside the codec,
  // whose own header still declares 4095. The client's data is at fault.
  ServerFixture fx;
  const std::vector<float> payload = make_payload(kTestWindow - 1, 54);
  std::vector<std::uint8_t> bad = reference_container("lossless", payload);
  const std::size_t numel_at = 4 + 1 + 1 + 2 + std::string("lossless").size() + 4 + 4;
  ASSERT_EQ(get_u32(bad.data() + numel_at), kTestWindow - 1);
  bad[numel_at] ^= 0x01;
  {
    Client client = fx.client();
    try {
      (void)client.decode_bytes("t", bad);
      FAIL() << "expected a 400 reject";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), kErrMalformed) << e.what();
    }
  }
  fx.quiesce();
  EXPECT_EQ(obs::ServeMetrics::instance().snapshot().errors, 1u);
}

// --- Connection reuse and pipelined OPEN. ------------------------------------

TEST(ServeTest, ErrorMessageCarriesThePrefixOnce) {
  // The ERROR frame carries the bare message; the client's ServerError adds
  // "ebct_serve error <code>: " once.
  ServerFixture fx;
  {
    Client client = fx.client();
    try {
      (void)client.encode_bytes("t", "no-such-codec", kTestWindow,
                                as_bytes(make_payload(256, 59)));
      FAIL() << "expected a 404 reject";
    } catch (const ServerError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.code(), kErrUnknownSpec);
      EXPECT_EQ(what.rfind("ebct_serve error 404: ", 0), 0u) << what;
      EXPECT_EQ(what.find("ebct_serve error", 1), std::string::npos) << what;
      EXPECT_NE(e.message().find("no-such-codec"), std::string::npos) << what;
      EXPECT_EQ(e.message().find("ebct_serve error"), std::string::npos) << what;
    }
  }
  fx.quiesce();
}

TEST(ServeTest, OneClientKeepsOneConnectionAcrossRequests) {
  ServerFixture fx;
  Client client = fx.client();
  for (int i = 0; i < 20; ++i) {
    const std::string& spec = all_specs()[static_cast<std::size_t>(i) % all_specs().size()];
    const std::vector<float> payload =
        make_payload(kTestWindow / 2 + 97 * static_cast<std::size_t>(i), 200 + i);
    const std::vector<std::uint8_t> out =
        client.encode_bytes("t", spec, kTestWindow, as_bytes(payload));
    ASSERT_EQ(out, reference_container(spec, payload)) << spec << " request " << i;
  }
  EXPECT_EQ(fx.server->tracked_connections(), 1u);
  EXPECT_EQ(fx.server->active_connections(), 1u);
  // The session gauges count requests in flight, not the kept connection.
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.requests, 20u);
  EXPECT_EQ(s.active_sessions, 0u);
  EXPECT_EQ(s.peak_sessions, 1u);
}

TEST(ServeTest, StopWithAnIdleKeptConnectionIsPrompt) {
  // Only a request in flight gets drain_grace_ms; a connection waiting for
  // its next request leaves at the first poll slice.
  ServerFixture fx;
  ASSERT_EQ(fx.server->config().drain_grace_ms, 5000);
  Client client = fx.client();
  const std::vector<float> payload = make_payload(kTestWindow, 55);
  (void)client.encode_bytes("t", "none", kTestWindow, as_bytes(payload));
  ASSERT_EQ(fx.server->active_connections(), 1u);
  const auto t0 = std::chrono::steady_clock::now();
  fx.server->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(obs::ServeMetrics::instance().snapshot().errors, 0u);
}

TEST(ServeTest, ClientReconnectsAfterAServerRestart) {
  ServerFixture fx;
  Client client = fx.client();
  const std::vector<float> payload = make_payload(kTestWindow + 300, 56);
  const std::vector<std::uint8_t> ref = reference_container("lossless", payload);
  EXPECT_EQ(client.encode_bytes("t", "lossless", kTestWindow, as_bytes(payload)), ref);

  // The restart closes the kept connection; the client notices before use.
  const ServerConfig cfg = fx.server->config();
  fx.server->stop();
  fx.server = std::make_unique<Server>(cfg);
  fx.server->start();
  EXPECT_EQ(client.encode_bytes("t", "lossless", kTestWindow, as_bytes(payload)), ref);
  EXPECT_EQ(client.encode_bytes("t", "lossless", kTestWindow, as_bytes(payload)), ref);
  EXPECT_EQ(fx.server->tracked_connections(), 1u);
}

TEST(ServeTest, TwoThreadsShareOneClient) {
  ServerFixture fx;
  Client client = fx.client();
  std::vector<std::string> failures(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::string tenant = "t";
      tenant += std::to_string(t);
      try {
        for (int i = 0; i < 12; ++i) {
          const std::string& spec =
              all_specs()[static_cast<std::size_t>(t + i) % all_specs().size()];
          const std::vector<float> payload = make_payload(
              kTestWindow + 131 * static_cast<std::size_t>(i), 300 + 50 * t + i);
          const std::vector<std::uint8_t> ref = reference_container(spec, payload);
          const std::vector<std::uint8_t> out =
              client.encode_bytes(tenant, spec, kTestWindow, as_bytes(payload));
          if (out != ref) throw std::runtime_error(spec + " encode diverged");
          const std::vector<std::uint8_t> back = client.decode_bytes(tenant, out);
          if (as_floats(back) != reference_roundtrip(spec, payload))
            throw std::runtime_error(spec + " decode diverged");
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures[0], "");
  EXPECT_EQ(failures[1], "");
  // The Client keeps one connection; any other it opened has been closed.
  wait_until([&] { return fx.server->active_connections() <= 1; });
  EXPECT_EQ(fx.server->active_connections(), 1u);
}

TEST(ServeTest, PipelinedOpenStillGetsTheServersVerdictOnALargePayload) {
  // 4 MiB is far past the AF_UNIX socket buffers, so the client is still
  // sending when the server rejects OPEN and closes: the caller must see
  // the ERROR frame, never a broken pipe or reset.
  const std::vector<float> big = make_payload((4u << 20) / sizeof(float), 57);
  const std::vector<std::uint8_t> raw = as_bytes(big);
  const std::vector<float> small = make_payload(1024, 58);
  {
    ServerFixture fx;
    Client client = fx.client();
    try {
      (void)client.encode_bytes("t", "no-such-codec", kTestWindow, raw);
      FAIL() << "expected a 404 reject";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), kErrUnknownSpec);
    }
    // The failed request closed its connection; the next one reconnects.
    EXPECT_EQ(client.encode_bytes("t", "none", kTestWindow, as_bytes(small)),
              reference_container("none", small));
  }
  {
    ServerConfig cfg;
    cfg.tenant_budget_bytes = 1024;  // below any session's resident cap
    ServerFixture fx(cfg);
    Client client = fx.client();
    try {
      (void)client.encode_bytes("t", "lossless", kTestWindow, raw);
      FAIL() << "expected a 429 reject";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), kErrOverBudget);
    }
    const std::vector<std::uint8_t> container = reference_container("none", big);
    try {
      (void)client.decode_bytes("t", container);
      FAIL() << "expected a 429 reject";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), kErrOverBudget);
    }
    EXPECT_EQ(obs::ServeMetrics::instance().snapshot().rejects, 2u);
  }
}

TEST(ServeTest, RawClientWithOneRequestPerConnectionStillWorks) {
  // A client that waits for OPEN_OK before sending and closes after DONE,
  // as every client did before connections were kept, is served as before.
  ServerFixture fx;
  const std::vector<float> payload = make_payload(2 * kTestWindow + 77, 59);
  const std::vector<std::uint8_t> raw = as_bytes(payload);
  for (int i = 0; i < 2; ++i) {
    const int fd = raw_connect(fx.server->config().socket_path);
    const std::vector<std::uint8_t> open = serialize_open(
        {Op::kEncode, "t", "lossless", static_cast<std::uint32_t>(kTestWindow)});
    write_frame(fd, FrameType::kOpen, open.data(), open.size());
    Frame f;
    ASSERT_TRUE(read_frame(fd, f, kDefaultMaxFrame));
    ASSERT_EQ(f.type, FrameType::kOpenOk);
    write_frame(fd, FrameType::kData, raw.data(), raw.size());
    write_frame(fd, FrameType::kFinish, nullptr, 0);
    std::vector<std::uint8_t> out;
    for (;;) {
      ASSERT_TRUE(read_frame(fd, f, kDefaultMaxFrame));
      if (f.type == FrameType::kDone) break;
      ASSERT_EQ(f.type, FrameType::kData);
      out.insert(out.end(), f.payload.begin(), f.payload.end());
    }
    EXPECT_EQ(out, reference_container("lossless", payload));
    ::close(fd);
  }
  fx.quiesce();
  EXPECT_EQ(fx.server->active_connections(), 0u);
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.errors, 0u);
}

}  // namespace
}  // namespace ebct::serve
