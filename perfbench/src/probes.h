// Timing wrappers around the program's I/O interfaces, used only in traced
// runs. Each forwards every call unchanged to the wrapped object and records
// calls, bytes and time from outside, so the per-layer figures come from the
// same public interfaces the pipeline itself uses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "msg/transport.h"

namespace perfbench {

using numastream::ByteSpan;
using numastream::ByteStream;
using numastream::Bytes;
using numastream::JournalMedia;
using numastream::Listener;
using numastream::MutableByteSpan;
using numastream::Result;
using numastream::Status;

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Stream calls are timed with it rather
/// than wall time so a read blocked on an idle peer costs nothing.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Traffic through every ByteStream on one side of the connection.
struct StreamTally {
  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> write_bytes{0};
  std::atomic<std::int64_t> write_cpu_ns{0};
  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::int64_t> read_cpu_ns{0};
};

class TallyStream final : public ByteStream {
 public:
  TallyStream(std::unique_ptr<ByteStream> inner, StreamTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  Status write_all(ByteSpan data) override {
    const std::int64_t t0 = thread_cpu_ns();
    Status status = inner_->write_all(data);
    note_write(t0, data.size(), status);
    return status;
  }

  // Forwarded as one vectored write: the default would join the spans into
  // a copy, which the TCP stream (writev) never makes.
  Status write_all_vec(std::initializer_list<ByteSpan> spans) override {
    std::size_t total = 0;
    for (const ByteSpan& span : spans) {
      total += span.size();
    }
    const std::int64_t t0 = thread_cpu_ns();
    Status status = inner_->write_all_vec(spans);
    note_write(t0, total, status);
    return status;
  }

  Result<std::size_t> read_some(MutableByteSpan out) override {
    const std::int64_t t0 = thread_cpu_ns();
    auto n = inner_->read_some(out);
    tally_.read_cpu_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
    tally_.read_calls.fetch_add(1, std::memory_order_relaxed);
    if (n.ok()) {
      tally_.read_bytes.fetch_add(n.value(), std::memory_order_relaxed);
    }
    return n;
  }

  void shutdown_write() override { inner_->shutdown_write(); }
  void cancel() noexcept override { inner_->cancel(); }

 private:
  void note_write(std::int64_t t0, std::size_t bytes, const Status& status) {
    tally_.write_cpu_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
    tally_.write_calls.fetch_add(1, std::memory_order_relaxed);
    if (status.is_ok()) {
      tally_.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<ByteStream> inner_;
  StreamTally& tally_;
};

/// Wraps every accepted connection in a TallyStream.
class TallyListener final : public Listener {
 public:
  TallyListener(Listener& inner, StreamTally& tally) : inner_(inner), tally_(tally) {}

  Result<std::unique_ptr<ByteStream>> accept() override {
    auto stream = inner_.accept();
    if (!stream.ok()) {
      return stream.status();
    }
    return std::unique_ptr<ByteStream>(
        std::make_unique<TallyStream>(std::move(stream).value(), tally_));
  }

  void close() override { inner_.close(); }

 private:
  Listener& inner_;
  StreamTally& tally_;
};

/// Counts appends and times every flush (the journal's fsync).
class TallyMedia final : public JournalMedia {
 public:
  explicit TallyMedia(JournalMedia& inner) : inner_(inner) {}

  Status append(ByteSpan data) override {
    appends_.fetch_add(1, std::memory_order_relaxed);
    return inner_.append(data);
  }

  Status flush() override {
    const std::int64_t t0 = mono_ns();
    Status status = inner_.flush();
    const std::int64_t took = mono_ns() - t0;
    const std::lock_guard<std::mutex> lock(mutex_);
    flush_ns_.push_back(took);
    return status;
  }

  Result<Bytes> read_all() override { return inner_.read_all(); }
  Status write_at(std::uint64_t offset, ByteSpan data) override {
    return inner_.write_at(offset, data);
  }

  [[nodiscard]] std::uint64_t appends() const { return appends_.load(); }
  [[nodiscard]] std::vector<std::int64_t> flush_ns() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return flush_ns_;
  }

 private:
  JournalMedia& inner_;
  std::atomic<std::uint64_t> appends_{0};
  mutable std::mutex mutex_;
  std::vector<std::int64_t> flush_ns_;  // guarded by mutex_
};

}  // namespace perfbench
