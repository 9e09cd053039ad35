// The benchmark's own edges of the pipeline: the pre-rendered inputs, the
// source that hands them to the sender (closed loop or paced), and the sink
// that checks every delivered chunk against the input it came from.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/tomo.h"
#include "probes.h"

namespace perfbench {

using numastream::Chunk;
using numastream::ChunkSink;
using numastream::ChunkSource;

/// Distinct projections per stream, rendered before timing starts. Chunk
/// `sequence` of a stream carries projection `sequence % pool`.
class Inputs {
 public:
  Inputs(std::uint64_t seed, int streams, std::uint32_t rows, std::size_t pool) {
    for (int s = 0; s < streams; ++s) {
      numastream::TomoConfig config;
      config.rows = rows;
      config.seed = seed * 1000003ULL + static_cast<std::uint64_t>(s) + 1;
      const numastream::TomoGenerator generator(config);
      std::vector<Bytes> projections;
      projections.reserve(pool);
      for (std::size_t i = 0; i < pool; ++i) {
        projections.push_back(generator.projection(i));
      }
      pools_.push_back(std::move(projections));
    }
  }

  [[nodiscard]] const Bytes& payload(std::uint32_t stream, std::uint64_t sequence) const {
    const auto& pool = pools_[stream];
    return pool[sequence % pool.size()];
  }
  [[nodiscard]] const std::vector<std::vector<Bytes>>& pools() const { return pools_; }

 private:
  std::vector<std::vector<Bytes>> pools_;
};

/// One chunk's life as the benchmark sees it, indexed by sequence.
struct ChunkRecord {
  std::int64_t ref_ns = 0;      ///< when it was due (paced) or pulled (closed loop)
  std::int64_t release_ns = 0;  ///< when the source handed it to the sender
  std::atomic<std::int64_t> delivered_ns{0};
  std::atomic<int> deliveries{0};
};

/// Shared start and stop signals of one run.
struct RunControl {
  std::atomic<std::int64_t> origin_ns{0};  ///< first pull of any source
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered_bytes{0};
  std::atomic<std::uint64_t> delivered_chunks{0};

  std::int64_t start() {
    std::int64_t expected = 0;
    origin_ns.compare_exchange_strong(expected, mono_ns());
    return origin_ns.load();
  }
};

/// Hands out one stream's inputs. With `rate` > 0 it is an open loop: chunk
/// i is due at origin + i/rate whatever the pipeline's progress, and a stall
/// shows as lateness. With `rate` == 0 it is a closed loop: the compress
/// thread pulls the next chunk as soon as it has queued the previous one.
class BenchSource final : public ChunkSource {
 public:
  BenchSource(const Inputs& inputs, std::uint32_t stream, double rate,
              std::size_t capacity, RunControl& control)
      : inputs_(inputs),
        stream_(stream),
        rate_(rate),
        records_(capacity),
        control_(control) {}

  std::optional<Chunk> next() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::int64_t origin = control_.start();
    if (control_.stop.load() || issued_ >= records_.size()) {
      overflow_ = overflow_ || issued_ >= records_.size();
      return std::nullopt;
    }
    ChunkRecord& record = records_[issued_];
    if (rate_ > 0) {
      record.ref_ns =
          origin + static_cast<std::int64_t>(static_cast<double>(issued_) * 1e9 / rate_);
      const std::int64_t wait = record.ref_ns - mono_ns();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      }
      record.release_ns = mono_ns();
    } else {
      record.ref_ns = record.release_ns = mono_ns();
    }
    Chunk chunk;
    chunk.stream_id = stream_;
    chunk.sequence = issued_;
    chunk.payload = inputs_.payload(stream_, issued_);
    issued_count_.store(++issued_, std::memory_order_release);
    return chunk;
  }

  /// Chunks handed out; stable once the sender has returned.
  [[nodiscard]] std::uint64_t issued() const { return issued_count_.load(); }
  [[nodiscard]] bool overflowed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return overflow_;
  }
  [[nodiscard]] const ChunkRecord& record(std::uint64_t sequence) const {
    return records_[sequence];
  }
  ChunkRecord& record(std::uint64_t sequence) { return records_[sequence]; }

 private:
  const Inputs& inputs_;
  const std::uint32_t stream_;
  const double rate_;
  std::vector<ChunkRecord> records_;
  RunControl& control_;
  mutable std::mutex mutex_;
  std::uint64_t issued_ = 0;  // guarded by mutex_
  bool overflow_ = false;     // guarded by mutex_
  std::atomic<std::uint64_t> issued_count_{0};
};

/// Checks each delivered chunk byte for byte against the input the source
/// handed out for its (stream, sequence), and stamps its delivery time.
class VerifySink final : public ChunkSink {
 public:
  VerifySink(const Inputs& inputs, BenchSource& source, std::uint32_t stream,
             RunControl& control)
      : inputs_(inputs), source_(source), stream_(stream), control_(control) {}

  void deliver(Chunk chunk) override {
    const std::int64_t t0 = mono_ns();
    bool ok = chunk.stream_id == stream_ && chunk.sequence < source_.issued();
    if (ok) {
      const Bytes& want = inputs_.payload(stream_, chunk.sequence);
      ok = chunk.payload.size() == want.size() &&
           std::memcmp(chunk.payload.data(), want.data(), want.size()) == 0;
    }
    verify_ns_.fetch_add(mono_ns() - t0, std::memory_order_relaxed);
    if (!ok) {
      mismatched_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ChunkRecord& record = source_.record(chunk.sequence);
    if (record.deliveries.fetch_add(1) == 0) {
      record.delivered_ns.store(t0, std::memory_order_relaxed);
    }
    control_.delivered_bytes.fetch_add(chunk.size(), std::memory_order_relaxed);
    control_.delivered_chunks.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t mismatched() const { return mismatched_.load(); }
  [[nodiscard]] std::int64_t verify_ns() const { return verify_ns_.load(); }

 private:
  const Inputs& inputs_;
  BenchSource& source_;
  const std::uint32_t stream_;
  RunControl& control_;
  std::atomic<std::uint64_t> mismatched_{0};
  std::atomic<std::int64_t> verify_ns_{0};
};

}  // namespace perfbench
