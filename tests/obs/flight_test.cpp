// Flight recorder: seqlocked per-thread ring journals. Covers the single
// journal (ordering, truncation, wrap), the recorder registry, JSON/dump
// rendering, and the concurrency contract: N writer threads hammering their
// own journals while a reader snapshots must never surface a torn event.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"

namespace ipa::obs {
namespace {

TEST(FlightJournal, RecordsNewestFirst) {
  FlightJournal journal("t", 16);
  journal.record(FlightKind::kState, "first");
  journal.record(FlightKind::kOp, "second", "detail", 7, 9);
  journal.record(FlightKind::kError, "third");

  const auto events = journal.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].what, "third");
  EXPECT_STREQ(events[1].what, "second");
  EXPECT_STREQ(events[2].what, "first");
  EXPECT_EQ(events[1].kind, FlightKind::kOp);
  EXPECT_STREQ(events[1].detail, "detail");
  EXPECT_EQ(events[1].a, 7u);
  EXPECT_EQ(events[1].b, 9u);
  EXPECT_EQ(journal.total_recorded(), 3u);

  // max_events caps from the newest end.
  const auto capped = journal.snapshot(2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_STREQ(capped[0].what, "third");
  EXPECT_STREQ(capped[1].what, "second");
}

TEST(FlightJournal, TruncatesLongStringsAndWraps) {
  FlightJournal journal("t", 8);
  EXPECT_EQ(journal.capacity(), 8u);
  const std::string long_what(100, 'w');
  const std::string long_detail(100, 'd');
  for (int i = 0; i < 20; ++i) {
    journal.record(FlightKind::kMark, long_what, long_detail,
                   static_cast<std::uint64_t>(i));
  }
  const auto events = journal.snapshot();
  ASSERT_EQ(events.size(), 8u);  // ring capacity, oldest 12 gone
  EXPECT_EQ(journal.total_recorded(), 20u);
  // Newest first: a = 19, 18, ...
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 19u - i);
    // Truncated but NUL-terminated.
    EXPECT_EQ(std::strlen(events[i].what), sizeof events[i].what - 1);
    EXPECT_EQ(std::strlen(events[i].detail), sizeof events[i].detail - 1);
  }
}

TEST(FlightJournal, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightJournal("t", 0).capacity(), 8u);
  EXPECT_EQ(FlightJournal("t", 5).capacity(), 8u);
  EXPECT_EQ(FlightJournal("t", 9).capacity(), 16u);
  EXPECT_EQ(FlightJournal("t", 64).capacity(), 64u);
}

TEST(FlightRecorder, LocalRegistersOncePerThread) {
  FlightRecorder recorder(16);
  FlightJournal& a = recorder.local();
  FlightJournal& b = recorder.local();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(recorder.journal_count(), 1u);

  std::thread([&] {
    recorder.local().record(FlightKind::kMark, "other-thread");
  }).join();
  EXPECT_EQ(recorder.journal_count(), 2u);

  // The exited thread's journal is still snapshotable.
  const auto threads = recorder.snapshot();
  ASSERT_EQ(threads.size(), 2u);
  bool found = false;
  for (const ThreadFlight& t : threads) {
    for (const FlightEvent& e : t.events) {
      found |= std::strcmp(e.what, "other-thread") == 0;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, RenderJsonIsWellFormedAndBounded) {
  FlightRecorder recorder(16);
  auto journal = recorder.adopt("probe");
  journal->record(FlightKind::kConn, "conn.open", "peer \"quoted\"", 3);
  for (int i = 0; i < 10; ++i) journal->record(FlightKind::kMark, "tick");

  const std::string json = recorder.render_json(2);
  EXPECT_NE(json.find("\"threads\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":11"), std::string::npos);
  EXPECT_NE(json.find("\"what\":\"tick\""), std::string::npos);
  // Bounded to 2 events: the quoted open event fell outside the cap.
  EXPECT_EQ(json.find("conn.open"), std::string::npos);

  const std::string full = recorder.render_json(0);
  EXPECT_NE(full.find("\"what\":\"conn.open\""), std::string::npos);
  EXPECT_NE(full.find("peer \\\"quoted\\\""), std::string::npos);
}

TEST(FlightRecorder, DumpWritesPlainTextToFd) {
  FlightRecorder recorder(16);
  auto journal = recorder.adopt("dumped");
  journal->record(FlightKind::kError, "engine.fail", "bad read");

  char path[] = "/tmp/ipa-flight-dump-XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  recorder.dump(fd);
  ::lseek(fd, 0, SEEK_SET);
  char buffer[4096] = {};
  const ssize_t n = ::read(fd, buffer, sizeof buffer - 1);
  ::close(fd);
  ::unlink(path);
  ASSERT_GT(n, 0);
  const std::string text(buffer, static_cast<std::size_t>(n));
  EXPECT_NE(text.find("dumped"), std::string::npos);
  EXPECT_NE(text.find("engine.fail"), std::string::npos);
  EXPECT_NE(text.find("bad read"), std::string::npos);
}

TEST(FlightGlobal, FreeFunctionRecordsToGlobalRecorder) {
  flight(FlightKind::kMark, "global-probe", "hello", 1, 2);
  // Other tests' exited threads may have been pruned meanwhile, so the
  // journal count is not monotonic; the calling thread's journal is live.
  const auto events = FlightRecorder::global().local().snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_STREQ(events.front().what, "global-probe");
  EXPECT_EQ(events.front().a, 1u);
  EXPECT_EQ(events.front().b, 2u);
  bool found = false;
  for (const ThreadFlight& t : FlightRecorder::global().snapshot()) {
    for (const FlightEvent& e : t.events) {
      found |= std::strcmp(e.what, "global-probe") == 0;
    }
  }
  EXPECT_TRUE(found);
}

// Every engine thread of every session registers a journal; once its thread
// exits the journal is retired, and only the newest kRetainedJournals of
// those are kept, so a long-running site's recorder does not grow.
TEST(FlightRecorder, ExitedThreadsJournalsAreBounded) {
  constexpr int kThreads = 3 * static_cast<int>(FlightRecorder::kRetainedJournals);
  FlightRecorder recorder(16);
  recorder.local().record(FlightKind::kMark, "main");  // one live journal
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&recorder, i] {
      recorder.local().record(FlightKind::kMark, "short-lived", {},
                              static_cast<std::uint64_t>(i));
    }).join();
    EXPECT_LE(recorder.journal_count(), 1 + FlightRecorder::kRetainedJournals);
  }
  EXPECT_EQ(recorder.journal_count(), 1 + FlightRecorder::kRetainedJournals);

  // The retained tails are the threads that exited last, and the live
  // thread's journal survives every prune.
  std::vector<std::uint64_t> kept;
  bool main_kept = false;
  for (const ThreadFlight& t : recorder.snapshot()) {
    for (const FlightEvent& e : t.events) {
      if (std::strcmp(e.what, "short-lived") == 0) kept.push_back(e.a);
      main_kept |= std::strcmp(e.what, "main") == 0;
    }
  }
  EXPECT_TRUE(main_kept);
  std::sort(kept.begin(), kept.end());
  ASSERT_EQ(kept.size(), FlightRecorder::kRetainedJournals);
  EXPECT_EQ(kept.front(), kThreads - FlightRecorder::kRetainedJournals);
  EXPECT_EQ(kept.back(), static_cast<std::uint64_t>(kThreads - 1));
}

// The concurrency contract: writers never block, and a reader snapshotting
// mid-overwrite must only ever see internally-consistent events. Each writer
// stamps every field from the same counter, so any mixed-up event (fields
// from two different records) is detectable.
TEST(FlightRecorder, SnapshotsStayConsistentUnderConcurrentWriters) {
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 20000;
  FlightRecorder recorder(32);  // tiny rings -> constant overwrite pressure

  std::atomic<bool> go{false};
  std::atomic<bool> stop_reading{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop_reading.load(std::memory_order_acquire)) {
      for (const ThreadFlight& t : recorder.snapshot()) {
        std::uint64_t last_b = ~0ull;
        for (const FlightEvent& e : t.events) {
          // Event self-consistency: detail == "t<a>:<b>" and kind matches
          // the writer's parity choice.
          char expected[sizeof e.detail];
          std::snprintf(expected, sizeof expected, "t%llu:%llu",
                        static_cast<unsigned long long>(e.a),
                        static_cast<unsigned long long>(e.b));
          if (std::strcmp(e.detail, expected) != 0) torn.fetch_add(1);
          const FlightKind want =
              e.b % 2 == 0 ? FlightKind::kState : FlightKind::kOp;
          if (e.kind != want) torn.fetch_add(1);
          // Per-thread events are newest-first: b strictly decreasing.
          if (last_b != ~0ull && e.b >= last_b) torn.fetch_add(1);
          last_b = e.b;
        }
      }
      // ipa-lint: allow(sleep-sync) -- yields between lock-free snapshot scans of a ring the writers are
      // still filling; the stop flag, not the yield, ends the loop.
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      // ipa-lint: allow(sleep-sync) -- start-line spin keeps the racing writers starting simultaneously;
      // a cv wakeup would serialize them.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      FlightJournal& journal = recorder.local();
      for (int i = 0; i < kEventsPerWriter; ++i) {
        char detail[sizeof(FlightEvent{}.detail)];
        std::snprintf(detail, sizeof detail, "t%d:%d", w, i);
        journal.record(i % 2 == 0 ? FlightKind::kState : FlightKind::kOp,
                       "stress", detail, static_cast<std::uint64_t>(w),
                       static_cast<std::uint64_t>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& writer : writers) writer.join();
  stop_reading.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  // Nothing was lost on the write side: totals are exact per journal.
  std::uint64_t total = 0;
  for (const ThreadFlight& t : recorder.snapshot()) total += t.total;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kEventsPerWriter);
}

}  // namespace
}  // namespace ipa::obs
