// Server-parallelism tests: the per-shard slice ownership of the MC core,
// the event loop in front of it, and the knob that shapes both.
//
// Covers the shard routing edge cases (one shard, a shard count that does
// not divide the text range, a chunk straddling a shard boundary), the
// loop's bounded-queue deferral and park-all exclusive barrier under
// concurrent submitters, the CLI-level validation of --shards, and
// digest-reply coalescing raced against a concurrent same-shard install (a
// TSan target: two handlers inside the core at once).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "minicc/compiler.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/server_loop.h"
#include "softcache/system.h"

namespace sc {
namespace {

using softcache::McServerConfig;
using softcache::McServerLoop;
using softcache::MemoryController;
using softcache::MsgType;
using softcache::Reply;
using softcache::Request;

image::Image LoopImage() {
  auto img = minicc::CompileMiniC(R"(
    int a[256];
    int main() {
      int sum = 0;
      for (int i = 0; i < 256; i = i + 1) { a[i] = i * 3; }
      for (int i = 0; i < 256; i = i + 1) { sum = sum + a[i]; }
      return sum % 251;
    }
  )");
  SC_CHECK(img.ok());
  return std::move(*img);
}

Request ChunkReq(uint32_t addr, uint32_t client_id, uint32_t seq = 1) {
  Request req;
  req.type = MsgType::kChunkRequest;
  req.seq = seq;
  req.addr = addr;
  req.client_id = client_id;
  return req;
}

Reply MustParse(const std::vector<uint8_t>& bytes) {
  auto reply = Reply::Parse(bytes);
  SC_CHECK(reply.ok()) << reply.error().ToString();
  return std::move(*reply);
}

// ---------------------------------------------------------------------------
// Shard routing edge cases
// ---------------------------------------------------------------------------

TEST(ShardRouting, OneShardMapsEveryAddressToZero) {
  const image::Image img = LoopImage();
  MemoryController mc(img, softcache::Style::kSparc, 64);
  const auto& server = mc.server();
  EXPECT_EQ(server.shards(), 1u);
  for (uint32_t addr : {0u, img.text_base, img.text_base + 4,
                        img.text_end() - 4, img.text_end(), 0xffffffffu}) {
    EXPECT_EQ(server.ShardFor(addr), 0u) << "addr " << addr;
  }
}

TEST(ShardRouting, NonDividingShardCountCoversWholeTextRange) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 3;  // never divides a word-aligned text span evenly
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);
  const auto& server = mc.server();
  uint32_t prev = 0;
  for (uint32_t addr = img.text_base; addr < img.text_end(); addr += 4) {
    const uint32_t shard = server.ShardFor(addr);
    ASSERT_LT(shard, 3u) << "addr " << addr << " routed out of range";
    ASSERT_GE(shard, prev) << "shard map not monotone at " << addr;
    prev = shard;
  }
  // The slices are contiguous and all non-empty for this text size: the
  // last in-range address must land in the last shard.
  EXPECT_EQ(server.ShardFor(img.text_end() - 4), 2u);
  // Outside the text range (including the one-past-the-end boundary)
  // everything folds into shard 0 — garbage frames get a stable home.
  EXPECT_EQ(server.ShardFor(img.text_end()), 0u);
  EXPECT_EQ(server.ShardFor(img.text_base - 4), 0u);
}

TEST(ShardRouting, InvalidateRangeStraddlingShardBoundaryDropsBothSlices) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 2;
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);
  auto& server = mc.server();
  // The first address owned by shard 1 is the boundary; memoize one chunk
  // ending just below it and one starting at it.
  uint32_t boundary = img.text_base;
  while (server.ShardFor(boundary) == 0) boundary += 4;
  ASSERT_EQ(server.ShardFor(boundary - 4), 0u);
  ASSERT_EQ(server.ShardFor(boundary), 1u);
  ASSERT_TRUE(server.CutShared(boundary - 4).ok());
  ASSERT_TRUE(server.CutShared(boundary).ok());
  ASSERT_GE(server.shard_memo_entries(0), 1u);
  ASSERT_GE(server.shard_memo_entries(1), 1u);

  // A write range straddling the boundary overlaps memoized chunks in BOTH
  // slices; the scan must cross the boundary and drop each side's entry.
  server.InvalidateMemoRange(boundary - 4, 8);
  EXPECT_EQ(server.shard_memo_entries(0), 0u);
  EXPECT_EQ(server.shard_memo_entries(1), 0u);
  EXPECT_GE(server.stats().memo_invalidations, 2u);
}

// ---------------------------------------------------------------------------
// CLI-level validation of the shard count
// ---------------------------------------------------------------------------

TEST(ValidateParallelism, AcceptsAndRejectsTheBoundaries) {
  std::string error;
  EXPECT_TRUE(softcache::ValidateServerParallelism(1, &error));
  EXPECT_TRUE(softcache::ValidateServerParallelism(4, &error));
  EXPECT_TRUE(softcache::ValidateServerParallelism(4096, &error));

  // Out-of-range boundaries are hard errors, never silent clamps.
  EXPECT_FALSE(softcache::ValidateServerParallelism(0, &error));
  EXPECT_NE(error.find("shards"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateServerParallelism(4097, &error));
  EXPECT_NE(error.find("4096"), std::string::npos);
  EXPECT_FALSE(softcache::ValidateServerParallelism(-1, &error));
}

// ---------------------------------------------------------------------------
// Loop semantics under concurrent submitters (test-double handler, no MC)
// ---------------------------------------------------------------------------

// Echo handler: reply = [port, frame...]; lets every assertion check that a
// ticket's reply came from ITS OWN frame, whatever thread pumped it.
std::vector<uint8_t> Echo(uint32_t port, const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> reply(frame.size() + 1);
  reply[0] = static_cast<uint8_t>(port);
  std::copy(frame.begin(), frame.end(), reply.begin() + 1);
  return reply;
}

TEST(ServerLoop, BoundedQueueDefersTheOverflowingSubmitter) {
  // A queue bounded at 1 ticket. The handler parks until a submitter has
  // been deferred, so the admission order is forced: one ticket in service
  // (popped by the pumper), one queued (at the bound), one deferred.
  // The handler only runs for a submitted ticket, after `self` is set.
  const McServerLoop* self = nullptr;
  McServerLoop loop(
      [&self](uint32_t port, const std::vector<uint8_t>& frame) {
        while (self->LiveStats().requests_deferred == 0) {
          std::this_thread::yield();
        }
        return Echo(port, frame);
      },
      /*max_queue=*/1);
  self = &loop;
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      const std::vector<uint8_t> reply = loop.Submit(t, {7});
      EXPECT_EQ(reply.size(), 2u);
      EXPECT_EQ(reply[0], t);
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(loop.stats().requests_enqueued, 3u);
  EXPECT_EQ(loop.stats().max_queue_depth, 1u);  // the bound held
  EXPECT_GE(loop.stats().requests_deferred, 1u);
}

TEST(ServerLoop, ParkAllExclusiveWaitsOutInFlightHandlers) {
  // Service log: "h<port>" on handler entry, "e<port>" on handler exit,
  // "X" for the exclusive section. Written by one thread at a time (the
  // pumper or the exclusive), ordered by the loop's own handoffs; the mutex
  // only makes that visible to the sanitizers.
  std::mutex log_mu;
  std::vector<std::string> log;
  const auto note = [&](std::string event) {
    std::lock_guard<std::mutex> lock(log_mu);
    log.push_back(std::move(event));
  };
  std::atomic<bool> gate{false};
  McServerLoop loop([&](uint32_t port, const std::vector<uint8_t>& frame) {
    note("h" + std::to_string(port));
    if (port == 0) {
      while (!gate.load()) std::this_thread::yield();
    }
    note("e" + std::to_string(port));
    return Echo(port, frame);
  });
  // Submitter 0 pumps its own ticket and parks inside the handler;
  // submitter 1 queues behind it.
  std::thread c0([&loop] { EXPECT_EQ(loop.Submit(0, {0})[0], 0u); });
  while (loop.LiveStats().requests_enqueued < 1) std::this_thread::yield();
  std::thread c1([&loop] { EXPECT_EQ(loop.Submit(1, {1})[0], 1u); });
  while (loop.LiveStats().requests_enqueued < 2) std::this_thread::yield();

  std::atomic<bool> ran{false};
  std::thread excl([&] {
    loop.RunExclusive([&] {
      note("X");
      ran = true;
    });
  });
  while (loop.LiveStats().exclusive_sections < 1) std::this_thread::yield();
  // The exclusive section must NOT start while the handler is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  gate = true;  // drain the handler; the barrier then admits the exclusive
  excl.join();
  c0.join();
  c1.join();
  EXPECT_TRUE(ran.load());
  // The in-flight handler finished before the exclusive, and the queued
  // ticket did not start until the exclusive was over.
  EXPECT_EQ(log, (std::vector<std::string>{"h0", "e0", "X", "h1", "e1"}));
  EXPECT_EQ(loop.stats().exclusive_sections, 1u);

  // The pump resumes after the exclusive: a fresh ticket still completes.
  const std::vector<uint8_t> reply = loop.Submit(5, {0});
  EXPECT_EQ(reply[0], 5u);
}

// ---------------------------------------------------------------------------
// Digest reply raced against a concurrent same-shard install (TSan target)
// ---------------------------------------------------------------------------

TEST(SharedReplyRace, ConcurrentSameShardDemandsStayCoherent) {
  const image::Image img = LoopImage();
  McServerConfig config;
  config.shards = 1;  // force every demand into ONE slice
  MemoryController mc(img, softcache::Style::kSparc, 64, 1, config);

  // Two clients demand the same chunk sequence concurrently, straight into
  // the endpoint (the un-switched surface is the documented thread-safe
  // path): every CutShared races on the single shard's lock and every
  // publish/lookup races on the digest window. TSan verifies the ownership
  // map; the assertions verify the protocol stays coherent — a digest
  // reply may only ever follow a published body.
  constexpr uint32_t kRounds = 50;
  std::atomic<uint32_t> bad{0};
  auto client = [&](uint32_t id) {
    for (uint32_t r = 0; r < kRounds; ++r) {
      const uint32_t addr = img.entry + (r % 8) * 4;
      Request req = ChunkReq(addr, id, r + 1);
      req.type = MsgType::kChunkSharedRequest;
      const Reply reply = MustParse(mc.Handle(req.Serialize()));
      if (reply.type == MsgType::kChunkDigestReply) {
        // Payload-less coalesced reply (aux/extra = digest lo/hi): the body
        // must already have crossed the wire, i.e. its digest is published.
        const uint64_t digest = static_cast<uint64_t>(reply.aux) |
                                (static_cast<uint64_t>(reply.extra) << 32);
        if (reply.payload.empty() == false ||
            !mc.server().DigestPublished(digest)) {
          ++bad;
        }
      } else if (reply.type != MsgType::kChunkReply &&
                 reply.type != MsgType::kChunkBatchReply) {
        ++bad;
      }
    }
  };
  std::thread a(client, 1);
  std::thread b(client, 2);
  a.join();
  b.join();
  EXPECT_EQ(bad.load(), 0u);
  const auto& stats = mc.server().stats();
  // Every demand was served, each distinct chunk cut exactly once
  // fleet-wide, and at least one reply coalesced to a digest.
  EXPECT_EQ(stats.shared_requests, 2 * kRounds);
  EXPECT_EQ(mc.server().shard_memo_entries(0), 8u);
  EXPECT_GE(stats.digest_replies, 1u);
  EXPECT_EQ(stats.translates + stats.translate_memo_hits, 2 * kRounds);
}

}  // namespace
}  // namespace sc
