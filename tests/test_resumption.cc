// Session resumption (DESIGN.md §10): the bounded session cache itself
// (LRU eviction, TTL expiry in virtual time, capacity clamp, snapshot /
// restore), the abbreviated handshake end to end (full then resumed, ticket
// reuse, unknown-ID and mixed-config fallback), the modeled crypto-cycle
// saving that motivates the whole feature, and the service-level carry: the
// redirector's cache surviving a warm restart in battery-backed RAM and a
// reconnect-heavy client that keeps its ticket while the TCP stack reaps
// its dead TCBs.
#include <gtest/gtest.h>

#include "issl/issl.h"
#include "issl/session_cache.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "services/supervisor.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;

constexpr net::IpAddr kServerIp = 1;
constexpr net::IpAddr kBackendIp = 2;
constexpr net::IpAddr kClientIp = 3;
constexpr net::Port kTlsPort = 4433;
constexpr net::Port kBackendPort = 8000;

std::vector<u8> bytes_of(std::string_view s) {
  return {reinterpret_cast<const u8*>(s.data()),
          reinterpret_cast<const u8*>(s.data()) + s.size()};
}

// ---------------------------------------------------------------------------
// SessionCache in isolation
// ---------------------------------------------------------------------------

std::array<u8, issl::kSessionIdBytes> id_of(u8 tag) {
  std::array<u8, issl::kSessionIdBytes> id{};
  id[0] = tag;
  return id;
}

const std::array<u8, issl::kMasterSecretBytes> kMaster = [] {
  std::array<u8, issl::kMasterSecretBytes> m{};
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = static_cast<u8>(i);
  return m;
}();

TEST(SessionCacheTest, LruEvictionPrefersLeastRecentlyUsed) {
  issl::SessionCache cache(3);
  cache.set_now(1);
  cache.insert(id_of(1), kMaster, 0, 16);
  cache.set_now(2);
  cache.insert(id_of(2), kMaster, 0, 16);
  cache.set_now(3);
  cache.insert(id_of(3), kMaster, 0, 16);
  // Touch 1 so 2 becomes the LRU victim.
  cache.set_now(4);
  EXPECT_TRUE(cache.lookup(id_of(1), nullptr));
  cache.set_now(5);
  cache.insert(id_of(4), kMaster, 0, 16);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(id_of(1), nullptr));
  EXPECT_FALSE(cache.lookup(id_of(2), nullptr));  // the LRU one went
  EXPECT_TRUE(cache.lookup(id_of(3), nullptr));
  EXPECT_TRUE(cache.lookup(id_of(4), nullptr));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SessionCacheTest, TtlExpiresEntriesInVirtualTime) {
  issl::SessionCache cache(4, /*ttl_ms=*/100);
  cache.set_now(0);
  cache.insert(id_of(7), kMaster, 0, 16);
  cache.set_now(99);
  EXPECT_TRUE(cache.lookup(id_of(7), nullptr));  // also refreshes last-used
  cache.set_now(198);
  EXPECT_TRUE(cache.lookup(id_of(7), nullptr));
  cache.set_now(298);  // 100ms past the refresh: stale
  EXPECT_FALSE(cache.lookup(id_of(7), nullptr));
  EXPECT_EQ(cache.expirations(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SessionCacheTest, CapacityClampedToFixedStorage) {
  // xalloc discipline: the backing array is fixed at compile time; a config
  // asking for more silently gets the clamp, never a heap.
  issl::SessionCache cache(1'000);
  for (u8 i = 0; i < 40; ++i) cache.insert(id_of(i), kMaster, 0, 16);
  EXPECT_EQ(cache.size(), issl::kSessionCacheMaxEntries);
  EXPECT_EQ(cache.evictions(), 40 - issl::kSessionCacheMaxEntries);
}

TEST(SessionCacheTest, ZeroCapacityNeverHitsNeverStores) {
  issl::SessionCache cache(0);
  cache.insert(id_of(1), kMaster, 0, 16);
  EXPECT_FALSE(cache.lookup(id_of(1), nullptr));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.insertions(), 0u);
}

TEST(SessionCacheTest, RestoreRoundTripsAndShrinkDropsExtras) {
  issl::SessionCache big(8);
  for (u8 i = 0; i < 8; ++i) big.insert(id_of(i), kMaster, 1, 32);
  issl::SessionCache copy(8);
  copy.restore(big.data());
  issl::ResumptionTicket t;
  ASSERT_TRUE(copy.lookup(id_of(3), &t));
  EXPECT_EQ(t.valid, 1);
  EXPECT_EQ(t.key_exchange, 1);
  EXPECT_EQ(t.key_bytes, 32);
  EXPECT_EQ(0, std::memcmp(t.master, kMaster.data(), kMaster.size()));
  // A smaller cache this boot: entries past its capacity are dropped, not
  // left resident-but-unreachable.
  issl::SessionCache small(2);
  small.restore(big.data());
  EXPECT_EQ(small.size(), 2u);
}

// ---------------------------------------------------------------------------
// Abbreviated handshake, session level
// ---------------------------------------------------------------------------

struct TlsHarness {
  net::SimNet net{1234};
  net::TcpStack server_stack{net, kServerIp};
  net::TcpStack client_stack{net, kClientIp};
  common::Xorshift64 server_rng{51};
  common::Xorshift64 client_rng{52};
  int listener = -1;

  struct Pair {
    std::unique_ptr<issl::TcpStream> server_stream;
    std::unique_ptr<issl::TcpStream> client_stream;
  };

  // Fresh TCP connection per handshake (as reconnecting clients make).
  Pair connect_transport() {
    if (listener < 0) {
      auto l = server_stack.listen(kTlsPort);
      EXPECT_TRUE(l.ok());
      listener = *l;
    }
    auto c = client_stack.connect(kServerIp, kTlsPort);
    EXPECT_TRUE(c.ok());
    net.tick(20);
    auto s = server_stack.accept(listener);
    EXPECT_TRUE(s.ok());
    Pair p;
    p.server_stream = std::make_unique<issl::TcpStream>(server_stack, *s);
    p.client_stream = std::make_unique<issl::TcpStream>(client_stack, *c);
    return p;
  }

  bool drive(issl::Session& client, issl::Session& server, int rounds = 600) {
    for (int i = 0; i < rounds; ++i) {
      (void)client.pump();
      (void)server.pump();
      net.tick(1);
      if (client.established() && server.established()) return true;
      if (client.failed() && server.failed()) return false;
    }
    return client.established() && server.established();
  }
};

issl::Config rsa_resuming_config() {
  issl::Config cfg = issl::Config::unix_default();
  cfg.rsa_modulus_bits = 512;  // full premaster fits, cost model is honest
  cfg.resumption = true;
  return cfg;
}

TEST(ResumptionTest, FullThenResumedThenReusedTicket) {
  TlsHarness h;
  issl::Config cfg = rsa_resuming_config();
  const auto key = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  issl::SessionCache cache(8);
  issl::ServerIdentity id;
  id.rsa = key;
  id.session_cache = &cache;

  // First contact: no ticket, full handshake, but a ticket comes back.
  auto t1 = h.connect_transport();
  auto c1 = issl::issl_bind_client(*t1.client_stream, cfg, h.client_rng);
  auto s1 = issl::issl_bind_server(*t1.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c1, s1));
  EXPECT_FALSE(c1.resumed());
  ASSERT_EQ(c1.ticket().valid, 1);
  const u64 full_cost = c1.handshake_cost_cycles() + s1.handshake_cost_cycles();

  // Second contact offers the ticket: abbreviated, and at least 5x cheaper
  // in modeled crypto cycles (the E11 gate, asserted here too).
  const issl::ResumptionTicket ticket = c1.ticket();
  auto t2 = h.connect_transport();
  auto c2 = issl::issl_bind_client(*t2.client_stream, cfg, h.client_rng, {},
                                   &ticket);
  auto s2 = issl::issl_bind_server(*t2.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c2, s2));
  EXPECT_TRUE(c2.resumed());
  EXPECT_TRUE(s2.resumed());
  const u64 resumed_cost =
      c2.handshake_cost_cycles() + s2.handshake_cost_cycles();
  EXPECT_GE(full_cost, 5 * resumed_cost);
  EXPECT_EQ(cache.hits(), 1u);

  // The resumed channel must actually carry data (same master, same keys).
  const auto msg = bytes_of("resumed but real");
  ASSERT_TRUE(issl::issl_write(c2, msg).ok());
  std::vector<u8> got;
  for (int i = 0; i < 200 && got.empty(); ++i) {
    h.net.tick(1);
    (void)s2.pump();
    auto r = issl::issl_read(s2);
    if (r.ok()) got = *r;
  }
  EXPECT_EQ(got, msg);

  // Tickets are multi-use: the same ID resumes again.
  auto t3 = h.connect_transport();
  auto c3 = issl::issl_bind_client(*t3.client_stream, cfg, h.client_rng, {},
                                   &ticket);
  auto s3 = issl::issl_bind_server(*t3.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c3, s3));
  EXPECT_TRUE(c3.resumed());
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(ResumptionTest, EmbeddedPskConfigResumesToo) {
  TlsHarness h;
  issl::Config cfg = issl::Config::embedded_port();
  cfg.resumption = true;
  const auto psk = bytes_of("board-psk");
  issl::SessionCache cache(8);
  issl::ServerIdentity id;
  id.psk = psk;
  id.session_cache = &cache;

  auto t1 = h.connect_transport();
  auto c1 = issl::issl_bind_client(*t1.client_stream, cfg, h.client_rng, psk);
  auto s1 = issl::issl_bind_server(*t1.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c1, s1));
  ASSERT_EQ(c1.ticket().valid, 1);
  const issl::ResumptionTicket ticket = c1.ticket();

  auto t2 = h.connect_transport();
  auto c2 = issl::issl_bind_client(*t2.client_stream, cfg, h.client_rng, psk,
                                   &ticket);
  auto s2 = issl::issl_bind_server(*t2.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c2, s2));
  EXPECT_TRUE(c2.resumed() && s2.resumed());
  EXPECT_LT(c2.handshake_cost_cycles(), c1.handshake_cost_cycles());
}

TEST(ResumptionTest, UnknownIdFallsBackToFullHandshake) {
  // A ticket the server never issued (cold cache, forged, or long evicted)
  // must produce a working *full* handshake, never a failure.
  TlsHarness h;
  issl::Config cfg = rsa_resuming_config();
  const auto key = crypto::rsa_generate(cfg.rsa_modulus_bits, h.server_rng);
  issl::SessionCache cache(8);
  issl::ServerIdentity id;
  id.rsa = key;
  id.session_cache = &cache;

  issl::ResumptionTicket forged{};
  forged.valid = 1;
  forged.key_exchange = static_cast<u8>(cfg.key_exchange);
  forged.key_bytes = static_cast<u8>(cfg.aes_key_bits / 8);
  forged.id[0] = 0xEE;

  auto t = h.connect_transport();
  auto c = issl::issl_bind_client(*t.client_stream, cfg, h.client_rng, {},
                                  &forged);
  auto s = issl::issl_bind_server(*t.server_stream, cfg, h.server_rng, id);
  ASSERT_TRUE(h.drive(c, s));
  EXPECT_FALSE(c.resumed());
  EXPECT_FALSE(s.resumed());
  EXPECT_EQ(cache.misses(), 1u);
  // And the full handshake re-issued a (different) ticket.
  EXPECT_EQ(c.ticket().valid, 1);
  EXPECT_NE(0, std::memcmp(c.ticket().id, forged.id, issl::kSessionIdBytes));
}

TEST(ResumptionTest, ResumingClientAgainstLegacyServerFallsBack) {
  // The server has resumption compiled out (config off): it answers the
  // offer with an empty trailer and the client runs the full handshake.
  TlsHarness h;
  issl::Config client_cfg = rsa_resuming_config();
  issl::Config server_cfg = client_cfg;
  server_cfg.resumption = false;
  const auto key =
      crypto::rsa_generate(client_cfg.rsa_modulus_bits, h.server_rng);
  issl::ServerIdentity id;
  id.rsa = key;

  issl::ResumptionTicket stale{};
  stale.valid = 1;
  stale.key_exchange = static_cast<u8>(client_cfg.key_exchange);
  stale.key_bytes = static_cast<u8>(client_cfg.aes_key_bits / 8);

  auto t = h.connect_transport();
  auto c = issl::issl_bind_client(*t.client_stream, client_cfg, h.client_rng,
                                  {}, &stale);
  auto s = issl::issl_bind_server(*t.server_stream, server_cfg, h.server_rng,
                                  id);
  ASSERT_TRUE(h.drive(c, s));
  EXPECT_FALSE(c.resumed());
  EXPECT_EQ(c.ticket().valid, 0);  // legacy server issues nothing
}

TEST(ResumptionTest, LegacyClientAgainstResumingServerUnaffected) {
  // Off-client / on-server: the hello carries no ID field, so the server
  // answers the original 34-byte-body wire format and caches nothing.
  TlsHarness h;
  issl::Config client_cfg = issl::Config::unix_default();
  client_cfg.rsa_modulus_bits = 512;
  issl::Config server_cfg = client_cfg;
  server_cfg.resumption = true;
  const auto key =
      crypto::rsa_generate(client_cfg.rsa_modulus_bits, h.server_rng);
  issl::SessionCache cache(8);
  issl::ServerIdentity id;
  id.rsa = key;
  id.session_cache = &cache;

  auto t = h.connect_transport();
  auto c = issl::issl_bind_client(*t.client_stream, client_cfg, h.client_rng);
  auto s = issl::issl_bind_server(*t.server_stream, server_cfg, h.server_rng,
                                  id);
  ASSERT_TRUE(h.drive(c, s));
  EXPECT_FALSE(c.resumed());
  EXPECT_EQ(cache.size(), 0u);  // nothing cached for a client that can't use it
}

// ---------------------------------------------------------------------------
// Service level: warm-restart carry and the reconnecting client
// ---------------------------------------------------------------------------

struct BoardWorld {
  net::SimNet net{4242};
  net::TcpStack backend_stack{net, kBackendIp};
  net::TcpStack client_stack{net, kClientIp};
  services::EchoBackend backend{backend_stack, kBackendPort};

  services::ServiceBoardConfig board_config() {
    services::ServiceBoardConfig cfg;
    cfg.redirector.listen_port = kTlsPort;
    cfg.redirector.backend_ip = kBackendIp;
    cfg.redirector.backend_port = kBackendPort;
    cfg.redirector.secure = true;
    cfg.redirector.psk = bytes_of("board-psk");
    cfg.redirector.tls = issl::Config::embedded_port();
    cfg.redirector.tls.resumption = true;
    cfg.redirector.session_cache_capacity = 8;
    cfg.board_ip = kServerIp;
    cfg.wdt_period_ms = 500;
    return cfg;
  }

  issl::Config client_tls() {
    issl::Config cfg = issl::Config::embedded_port();
    cfg.resumption = true;
    return cfg;
  }

  void drive(services::ServiceBoard& board, services::Client* client, u64 ms) {
    for (u64 i = 0; i < ms; ++i) {
      board.poll();
      backend.poll();
      if (client != nullptr) (void)client->poll();
      net.tick(1);
    }
  }

  bool echo(services::ServiceBoard& board, services::Client& client,
            std::string_view msg, u64 budget_ms = 1'500) {
    const std::size_t want = client.received().size() + msg.size();
    if (!client.send(bytes_of(msg)).is_ok()) return false;
    for (u64 i = 0; i < budget_ms; ++i) {
      board.poll();
      backend.poll();
      (void)client.poll();
      net.tick(1);
      if (client.received().size() >= want) return true;
    }
    return false;
  }
};

TEST(ResumptionTest, CacheSurvivesWarmRestartInBatteryRam) {
  BoardWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config());
  w.drive(board, nullptr, 30);

  services::Client client(w.client_stack, kServerIp, kTlsPort, true,
                          w.client_tls(), bytes_of("board-psk"));
  ASSERT_TRUE(client.start().is_ok());
  ASSERT_TRUE(w.echo(board, client, "before the bite"));
  ASSERT_EQ(client.ticket().valid, 1);
  EXPECT_FALSE(client.resumed());  // first contact was the full handshake
  // Finish this conversation cleanly (the ticket outlives the connection);
  // crashes with connections open are test_recovery's subject.
  client.close();
  w.drive(board, &client, 100);

  // Wedge the main loop past the watchdog period: hard reset, warm reboot.
  board.wedge_for_ms(600);
  w.drive(board, nullptr, 700);
  ASSERT_TRUE(board.up());
  ASSERT_EQ(board.wdt_bites(), 1u);

  // The reborn redirector restored the cache from battery RAM, so the
  // client's kept ticket resumes instead of paying the full handshake.
  ASSERT_NE(board.redirector(), nullptr);
  EXPECT_EQ(board.redirector()->session_cache().size(), 1u);
  ASSERT_TRUE(client.reconnect().is_ok());
  ASSERT_TRUE(w.echo(board, client, "after the bite"));
  EXPECT_TRUE(client.resumed());
  ASSERT_NE(board.redirector(), nullptr);
  EXPECT_GE(board.redirector()->session_cache().hits(), 1u);
}

TEST(ResumptionTest, ReconnectingClientKeepsTicketAndReapsTcbs) {
  BoardWorld w;
  ASSERT_TRUE(w.backend.start().is_ok());
  services::ServiceBoard board(w.net, w.board_config());
  w.drive(board, nullptr, 30);

  services::Client client(w.client_stack, kServerIp, kTlsPort, true,
                          w.client_tls(), bytes_of("board-psk"));
  ASSERT_TRUE(client.start().is_ok());
  const int kCycles = 6;
  int resumed = 0;
  for (int i = 0; i < kCycles; ++i) {
    ASSERT_TRUE(w.echo(board, client, "cycle")) << "cycle " << i;
    if (client.resumed()) ++resumed;
    if (i + 1 < kCycles) {
      ASSERT_TRUE(client.reconnect().is_ok());
    }
  }
  EXPECT_EQ(resumed, kCycles - 1);  // everything after first contact resumes
  ASSERT_NE(board.redirector(), nullptr);
  EXPECT_GE(board.redirector()->session_cache().hits(),
            static_cast<u64>(kCycles - 1));
  // The reconnect loop must not grow the socket table without bound: each
  // reconnect reaps the previous connection's dead TCB.
  EXPECT_LE(w.client_stack.tcb_count(), 2u);
  EXPECT_GE(w.client_stack.tcbs_reaped(), static_cast<u64>(kCycles - 2));
}

}  // namespace
}  // namespace rmc
