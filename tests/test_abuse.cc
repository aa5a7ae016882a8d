// Abuse-harness tests: the hardened record bounds, session-cache integrity
// rejection, the deterministic fuzzer, the regression corpus
// (tests/corpus/issl/*.bin — every file is a shape that once mattered), and
// the TCP front door under spoofed SYN floods (DESIGN.md §13, E15).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abuse/fuzz.h"
#include "abuse/hostile.h"
#include "common/prng.h"
#include "issl/record.h"
#include "issl/session_cache.h"
#include "net/simnet.h"
#include "net/tcp.h"
#include "telemetry/metrics.h"

namespace rmc {
namespace {

using common::u64;
using common::u8;

std::string corpus_path(const char* file) {
  return std::string(RMC_REPO_ROOT) + "/tests/corpus/issl/" + file;
}

const char* const kCorpusFiles[] = {
    "oversize_len.bin",   "bad_version.bin",     "zero_len_alert.bin",
    "truncated_hello.bin", "hs_len_bomb.bin",
};

// ---------------------------------------------------------------------------
// Record-layer hardening (satellite a)
// ---------------------------------------------------------------------------

TEST(RecordHardening, LengthAtBoundIsBufferedNotRefused) {
  common::Xorshift64 rng(1);
  issl::RecordCodec codec(rng);
  // A header claiming exactly kMaxRecordLen is legal: the codec should wait
  // for the body, not poison itself.
  const auto rec = abuse::raw_record(
      1, issl::kIsslVersion, static_cast<common::u16>(issl::kMaxRecordLen),
      {});
  ASSERT_TRUE(codec.feed(rec).is_ok());
  auto popped = codec.pop();
  ASSERT_TRUE(popped.ok());
  EXPECT_FALSE(popped.value().has_value());  // need more bytes
  EXPECT_FALSE(codec.poisoned());
  EXPECT_EQ(codec.malformed_records(), 0u);
}

TEST(RecordHardening, LengthPastBoundPoisonsBeforeBuffering) {
  common::Xorshift64 rng(1);
  issl::RecordCodec codec(rng);
  const auto rec = abuse::raw_record(
      1, issl::kIsslVersion,
      static_cast<common::u16>(issl::kMaxRecordLen + 1), {});
  ASSERT_TRUE(codec.feed(rec).is_ok());
  auto popped = codec.pop();
  EXPECT_FALSE(popped.ok());
  EXPECT_TRUE(codec.poisoned());
  EXPECT_EQ(codec.malformed_records(), 1u);
  // Nothing was buffered on the attacker's behalf beyond the refused header.
  EXPECT_LE(codec.buffered_bytes(), issl::kRecordHeaderBytes);
}

TEST(RecordHardening, RegistryMirrorsMalformedCounter) {
  auto& counter =
      telemetry::Registry::global().counter("issl.malformed_records");
  const u64 before = counter.value();

  common::Xorshift64 rng(2);
  issl::RecordCodec codec(rng);
  ASSERT_TRUE(codec.feed(abuse::raw_record(1, 0x31, 1, {})).is_ok());
  EXPECT_FALSE(codec.pop().ok());
  EXPECT_EQ(codec.malformed_records(), 1u);
  EXPECT_EQ(counter.value(), before + 1);
}

// ---------------------------------------------------------------------------
// Session-cache integrity (satellite b)
// ---------------------------------------------------------------------------

TEST(CacheIntegrity, TamperedEntryIsRejectedAtLookupAndWiped) {
  issl::SessionCache cache(4);
  u8 id[issl::kSessionIdBytes];
  u8 master[issl::kMasterSecretBytes];
  for (std::size_t i = 0; i < sizeof id; ++i) id[i] = static_cast<u8>(i);
  for (std::size_t i = 0; i < sizeof master; ++i)
    master[i] = static_cast<u8>(0x40 + i);
  cache.insert(id, master, 1, 16);

  // The battery-poisoning choreography: snapshot, flip one master byte,
  // restore. restore() takes the image at face value (boot stays O(1)).
  issl::SessionCacheData snap = cache.data();
  snap.entries[0].master[0] ^= 0xFF;
  cache.restore(snap);
  EXPECT_EQ(cache.size(), 1u);

  // lookup() is where the checksum is enforced: reject, wipe, count.
  issl::ResumptionTicket out;
  EXPECT_FALSE(cache.lookup(id, &out));
  EXPECT_EQ(cache.integrity_rejects(), 1u);
  EXPECT_EQ(cache.size(), 0u);  // the slot was scrubbed, not just skipped
  // And the reject is also a miss: the caller falls back to a full
  // handshake rather than erroring out.
  EXPECT_GE(cache.misses(), 1u);
}

TEST(CacheIntegrity, UntamperedEntrySurvivesSnapshotRoundTrip) {
  issl::SessionCache cache(4);
  u8 id[issl::kSessionIdBytes] = {9};
  u8 master[issl::kMasterSecretBytes] = {7};
  cache.insert(id, master, 0, 16);
  issl::SessionCacheData snap = cache.data();
  cache.restore(snap);
  issl::ResumptionTicket out;
  EXPECT_TRUE(cache.lookup(id, &out));
  EXPECT_EQ(out.valid, 1);
  EXPECT_EQ(cache.integrity_rejects(), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic fuzzer (tentpole)
// ---------------------------------------------------------------------------

TEST(Fuzzer, SameSeedSameEverything) {
  abuse::Fuzzer a(0xD00D), b(0xD00D);
  a.add_default_seeds();
  b.add_default_seeds();
  const auto sa = a.run(150);
  const auto sb = b.run(150);
  EXPECT_EQ(sa.iterations, sb.iterations);
  EXPECT_EQ(sa.wedges, sb.wedges);
  EXPECT_EQ(sa.session_failures, sb.session_failures);
  EXPECT_EQ(sa.record_poisons, sb.record_poisons);
  EXPECT_EQ(sa.malformed_records, sb.malformed_records);
  EXPECT_EQ(sa.coverage_features, sb.coverage_features);
  EXPECT_EQ(sa.corpus_size, sb.corpus_size);
  ASSERT_EQ(a.corpus().size(), b.corpus().size());
  for (std::size_t i = 0; i < a.corpus().size(); ++i) {
    EXPECT_EQ(a.corpus()[i], b.corpus()[i]) << "corpus entry " << i;
  }
}

TEST(Fuzzer, SeedsGrowCoverageAndNothingWedges) {
  abuse::Fuzzer f(0xE15);
  f.add_default_seeds();
  const auto s = f.run(200);
  EXPECT_EQ(s.wedges, 0u) << "an input wedged a session: "
                          << f.wedge_inputs().size() << " repro(s) held";
  EXPECT_GE(s.coverage_features, 16u);  // the seeds alone clear this bar
  EXPECT_GE(s.corpus_size, 8u);         // every default seed is interesting
}

TEST(Fuzzer, MutatorIsDeterministicAndBounded) {
  abuse::Fuzzer a(42), b(42);
  std::vector<u8> base = {1, 0x30, 0, 4, 9, 9, 9, 9};
  for (int i = 0; i < 50; ++i) {
    const auto ma = a.mutate(base);
    const auto mb = b.mutate(base);
    EXPECT_EQ(ma, mb);
    EXPECT_LE(ma.size(), 4096u);
  }
}

// ---------------------------------------------------------------------------
// Regression corpus: shapes that once mattered must never wedge again
// ---------------------------------------------------------------------------

TEST(Corpus, FilesLoadAndAreNonEmpty) {
  for (const char* f : kCorpusFiles) {
    EXPECT_FALSE(abuse::load_corpus_file(corpus_path(f)).empty())
        << corpus_path(f);
  }
}

TEST(Corpus, NoInputWedgesAnyTarget) {
  abuse::Fuzzer f(1);
  for (const char* file : kCorpusFiles) {
    const auto bytes = abuse::load_corpus_file(corpus_path(file));
    ASSERT_FALSE(bytes.empty()) << file;
    for (const bool sealed : {false, true}) {
      const auto r = f.run_record_target(bytes, sealed);
      EXPECT_FALSE(r.wedged) << file << " sealed=" << sealed;
    }
    for (const bool eof : {false, true}) {
      const auto r = f.run_session_target(bytes, eof);
      EXPECT_FALSE(r.wedged) << file << " eof=" << eof;
    }
  }
}

TEST(Corpus, LengthBombFailsFastWithoutBuffering) {
  abuse::Fuzzer f(1);
  const auto bomb = abuse::load_corpus_file(corpus_path("hs_len_bomb.bin"));
  ASSERT_FALSE(bomb.empty());
  // The 64 KB handshake-length claim must terminate the session (alert +
  // failed), not leave it pumping toward a body that will never arrive.
  const auto r = f.run_session_target(bomb, /*eof_after_input=*/false);
  EXPECT_FALSE(r.wedged);
  EXPECT_EQ(r.final_state,
            static_cast<int>(issl::SessionState::kFailed));
}

// ---------------------------------------------------------------------------
// TCP front door: spoofed SYN flood vs the counted backlog
// ---------------------------------------------------------------------------

TEST(SynFlood, EmbryoTimeoutReclaimsBacklogAndServiceRecovers) {
  net::SimNet medium(99);
  net::TcpStack board(medium, 1);
  net::TcpStack client_host(medium, 3);
  net::TcpStack attacker_host(medium, 4);
  auto listener = board.listen(4433, /*backlog=*/4);
  ASSERT_TRUE(listener.ok());

  abuse::HostileClient::Options opts;
  opts.behavior = abuse::Behavior::kSynFlood;
  opts.flood_syns_per_poll = 4;
  opts.flood_polls = 300;
  abuse::HostileClient flood(attacker_host, medium, 1, 4433, 0xF100D, opts);

  for (int t = 0; t < 300; ++t) {
    (void)flood.poll();
    medium.tick(1);
  }
  // The flood parked embryos and overflowed the counted backlog...
  EXPECT_GT(board.syn_backlog_drops(), 0u);
  EXPECT_LE(board.half_open_count(), 4u);
  // ...run past the default timeout horizon and the embryos are reclaimed.
  medium.tick(net::TcpStack::kSynRcvdTimeoutMs + 100);
  EXPECT_GT(board.embryonic_timeouts(), 0u);
  EXPECT_EQ(board.half_open_count(), 0u);

  // A legitimate client connects fine afterwards: no permanent damage.
  auto c = client_host.connect(1, 4433);
  ASSERT_TRUE(c.ok());
  medium.tick(20);
  EXPECT_TRUE(client_host.is_established(*c));
  auto sc = board.accept(*listener);
  EXPECT_TRUE(sc.ok());
}

// ---------------------------------------------------------------------------
// Crafting helpers shared across bench / fuzzer / tests
// ---------------------------------------------------------------------------

TEST(Crafting, RawRecordWritesClaimedLengthVerbatim) {
  const u8 body[3] = {0xAA, 0xBB, 0xCC};
  const auto rec = abuse::raw_record(2, issl::kIsslVersion, 0xFFFF, body);
  ASSERT_EQ(rec.size(), issl::kRecordHeaderBytes + 3);
  EXPECT_EQ(rec[2], 0xFF);  // the lie survives crafting untouched
  EXPECT_EQ(rec[3], 0xFF);
}

TEST(Crafting, ClientHelloRecordIsAcceptedByAServer) {
  // The crafted hello must be protocol-valid: feed it to a real server
  // session and the server should reply (ServerHello bytes written), not
  // fail. This pins the crafting helpers to the real wire format — if the
  // protocol evolves, this test fails before a bench silently tests nothing.
  common::Xorshift64 rng(5);
  const auto hello = abuse::client_hello_record(
      rng, issl::Config::embedded_port(), nullptr);
  abuse::Fuzzer f(1);
  const auto r = f.run_session_target(hello, /*eof_after_input=*/false);
  EXPECT_FALSE(r.wedged);
  EXPECT_EQ(r.malformed, 0u);
}

}  // namespace
}  // namespace rmc
