// perfbench: end-to-end and per-layer benchmark of the real numastream
// pipeline — StreamSender -> TCP loopback -> StreamReceiver with the real
// codecs — in one process on this host.
//
//   perfbench --workload <bulk_lz4|paced_null|paced_resume> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One run: set-up (timed as setup_s), then one pipeline run whose first
// kWarmupSeconds are not measured, then a measured window of --seconds, then
// a drain. Every delivered chunk is checked against its input. --trace 1
// wraps the program's ByteStream/Listener/JournalMedia in timing probes and
// replays the codec single-threaded afterwards; it reports per-layer
// metrics instead of the end-to-end ones. Diagnostics go to stdout first;
// the last line is one JSON object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/journal.h"
#include "core/pipeline.h"
#include "edges.h"
#include "msg/tcp.h"
#include "probes.h"
#include "replay.h"
#include "topo/discover.h"

namespace perfbench {
namespace {

using namespace numastream;

// Taken during static initialisation, before main: the cold set-up clock.
const std::int64_t kProcessStartNs = mono_ns();

constexpr double kWarmupSeconds = 2.0;
constexpr std::uint32_t kCols = 2700;  // full detector width
// How long after the measured window the pipeline may take to drain.
constexpr double kDrainLimitSeconds = 60.0;

struct Workload {
  const char* name;
  std::uint32_t rows;  ///< projection rows; chunk = rows x 2700 x 2 bytes
  const char* codec;
  int streams;         ///< sender pipelines, one stream and one connection each
  double rate;         ///< chunks/s per stream; 0 = closed loop
  bool resume;         ///< crash-safe mode: reconnect, resume, file journals
  std::size_t pool;    ///< distinct pre-rendered projections per stream
  /// The window is cut into parts of about this length, each holding about
  /// 100 chunks, so a part's 90th percentile has ten samples beyond it.
  /// Figures are taken over the parts (see the end of `run`), so a burst of host
  /// contention that hits a few parts does not move them.
  double part_seconds;
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"bulk_lz4", 2048, "lz4", 2, 0, false, 4, 5.0},
    {"paced_null", 256, "null", 1, 100, false, 32, 1.0},
    {"paced_resume", 64, "lz4", 1, 50, true, 64, 2.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.workload != nullptr && have_seed && args.seconds > 0;
}

/// Aggregate CPU time of the whole host, from the first line of /proc/stat.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostCpu read_host_cpu() {
  HostCpu cpu;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t ticks = 0;
    stat >> ticks;
    cpu.total += ticks;
    if (field == 7) {
      cpu.steal = ticks;
    }
  }
  return cpu;
}

struct Snapshot {
  std::int64_t t_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  double cpu_s = 0;  ///< process user + system time
  long nivcsw = 0;   ///< involuntary context switches
  double rss_mb = 0; ///< resident memory of the process
  HostCpu host;
};

/// Resident memory of this process now, from /proc/self/statm.
double read_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         1e6;
}

Snapshot take_snapshot(const RunControl& control) {
  Snapshot snap;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  snap.t_ns = mono_ns();
  snap.bytes = control.delivered_bytes.load();
  snap.chunks = control.delivered_chunks.load();
  snap.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  snap.nivcsw = usage.ru_nivcsw;
  snap.rss_mb = read_rss_mb();
  snap.host = read_host_cpu();
  return snap;
}

/// Linearly interpolated percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median of `values` over the parts whose host steal share was lowest: the
/// quietest quarter of the parts, and at least three of them.
double quiet_median(const std::vector<double>& values, const std::vector<double>& steal) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  const std::size_t keep = std::min(order.size(), std::max<std::size_t>(3, order.size() / 4));
  std::vector<double> quiet;
  for (std::size_t i = 0; i < keep; ++i) {
    quiet.push_back(values[order[i]]);
  }
  return percentile(quiet, 0.5);
}

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t wait = t_ns - mono_ns();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
}

NodeConfig make_config(const Workload& w, NodeRole role, std::uint64_t session) {
  NodeConfig config;
  config.role = role;
  config.codec_name = w.codec;
  config.chunk_bytes = static_cast<std::uint64_t>(w.rows) * kCols * 2;
  if (role == NodeRole::kSender) {
    config.node_name = "perfbench-sender";
    config.tasks = {TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
                    TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  } else {
    config.node_name = "perfbench-receiver";
    config.tasks = {TaskGroupConfig{.type = TaskType::kReceive, .count = w.streams},
                    TaskGroupConfig{.type = TaskType::kDecompress, .count = w.streams}};
  }
  if (w.resume) {
    config.recovery.reconnect = true;
    config.resume.session = session;
    // ack_interval > 0 can hang the run: the sender never reads piggybacked
    // acks and closes with them unread (see README.md).
    config.resume.ack_interval = 0;
  }
  return config;
}

/// Output checks: each one prints a line, and any failure makes the run
/// incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what, const std::string& detail = "") {
    std::printf("check: %-40s %s%s%s\n", what.c_str(), ok ? "ok" : "FAILED",
                detail.empty() ? "" : "  ", detail.c_str());
    all_ok_ = all_ok_ && ok;
  }
  [[nodiscard]] bool all_ok() const { return all_ok_; }

 private:
  bool all_ok_ = true;
};

std::string u64(std::uint64_t v) { return std::to_string(v); }

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const JsonMetrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.body().c_str());
  std::fflush(stdout);
}

/// Removes the run's journal directory however the run ends.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    if (!path.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  }
};

int run(const Args& args) {
  const Workload& w = *args.workload;
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name,
              args.seed, args.seconds, args.trace ? 1 : 0);

  // ---- set-up: topology, inputs, configs, journals, listener ----
  auto topo = discover_topology();
  if (!topo.ok()) {
    std::fprintf(stderr, "topology discovery failed: %s\n",
                 topo.status().to_string().c_str());
    return 1;
  }
  const Inputs inputs(args.seed, w.streams, w.rows, w.pool);
  const std::uint64_t session = args.seed + 1;  // any nonzero id names a session
  const NodeConfig sender_config = make_config(w, NodeRole::kSender, session);
  const NodeConfig receiver_config = make_config(w, NodeRole::kReceiver, session);
  for (const NodeConfig* config : {&sender_config, &receiver_config}) {
    const Status valid = config->validate(topo.value());
    if (!valid.is_ok()) {
      std::fprintf(stderr, "invalid config: %s\n", valid.to_string().c_str());
      return 1;
    }
  }

  ScratchDir scratch;
  std::unique_ptr<FileJournalMedia> sender_file;
  std::unique_ptr<FileJournalMedia> receiver_file;
  std::unique_ptr<TallyMedia> sender_tally_media;
  std::unique_ptr<TallyMedia> receiver_tally_media;
  std::unique_ptr<SenderJournal> sender_journal;
  std::unique_ptr<ReceiverJournal> receiver_journal;
  if (w.resume) {
    scratch.path = std::filesystem::path(".bench_tmp") /
                   (std::string(w.name) + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(scratch.path);
    std::filesystem::create_directories(scratch.path);
    sender_file = std::make_unique<FileJournalMedia>((scratch.path / "sender.journal").string());
    receiver_file =
        std::make_unique<FileJournalMedia>((scratch.path / "receiver.journal").string());
    JournalMedia* sender_media = sender_file.get();
    JournalMedia* receiver_media = receiver_file.get();
    if (args.trace) {
      sender_tally_media = std::make_unique<TallyMedia>(*sender_file);
      receiver_tally_media = std::make_unique<TallyMedia>(*receiver_file);
      sender_media = sender_tally_media.get();
      receiver_media = receiver_tally_media.get();
    }
    sender_journal = std::make_unique<SenderJournal>(*sender_media, session);
    receiver_journal = std::make_unique<ReceiverJournal>(*receiver_media, session);
    for (const Status& recovered : {sender_journal->recover(), receiver_journal->recover()}) {
      if (!recovered.is_ok()) {
        std::fprintf(stderr, "journal recovery failed: %s\n", recovered.to_string().c_str());
        return 1;
      }
    }
  }

  auto tcp_listener = TcpListener::bind("127.0.0.1", 0);
  if (!tcp_listener.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", tcp_listener.status().to_string().c_str());
    return 1;
  }
  const std::uint16_t port = tcp_listener.value()->port();
  StreamTally send_tally;  // sender-side connections
  StreamTally recv_tally;  // receiver-side connections
  TallyListener tally_listener(*tcp_listener.value(), recv_tally);
  Listener& listener =
      args.trace ? static_cast<Listener&>(tally_listener) : *tcp_listener.value();
  const double setup_s = static_cast<double>(mono_ns() - kProcessStartNs) * 1e-9;
  // Journal traffic of set-up (recovery writes the session records) is not
  // the stream's.
  std::uint64_t setup_appends = 0;
  std::size_t setup_flushes = 0;
  for (const TallyMedia* media : {sender_tally_media.get(), receiver_tally_media.get()}) {
    if (media != nullptr) {
      setup_appends += media->appends();
      setup_flushes += media->flush_ns().size();
    }
  }

  // ---- the pipeline run ----
  RunControl control;
  const double max_rate = w.rate > 0 ? w.rate : 200;
  const auto capacity = static_cast<std::size_t>(
      (kWarmupSeconds + args.seconds + kDrainLimitSeconds) * max_rate);
  std::vector<std::unique_ptr<BenchSource>> sources;
  std::vector<std::unique_ptr<VerifySink>> sinks;
  DemuxSink demux;
  for (int s = 0; s < w.streams; ++s) {
    const auto stream = static_cast<std::uint32_t>(s);
    sources.push_back(std::make_unique<BenchSource>(inputs, stream, w.rate, capacity, control));
    sinks.push_back(std::make_unique<VerifySink>(inputs, *sources.back(), stream, control));
    demux.route(stream, sinks.back().get());
  }

  const std::size_t n_senders = sources.size();
  std::vector<Result<SenderStats>> tx(n_senders, Result<SenderStats>(unavailable_error("not run")));
  Result<ReceiverStats> rx(unavailable_error("not run"));
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    StreamReceiver receiver(topo.value(), receiver_config);
    rx = receiver.run(listener, demux, nullptr, nullptr, {}, {}, {},
                      ResumeHooks{.receiver_journal = receiver_journal.get()});
    finished.fetch_add(1);
  });
  const ConnectFn connect = [&]() -> Result<std::unique_ptr<ByteStream>> {
    auto stream = tcp_connect("127.0.0.1", port);
    if (!args.trace || !stream.ok()) {
      return stream;
    }
    return std::unique_ptr<ByteStream>(
        std::make_unique<TallyStream>(std::move(stream).value(), send_tally));
  };
  for (std::size_t s = 0; s < n_senders; ++s) {
    threads.emplace_back([&, s] {
      StreamSender sender(topo.value(), sender_config);
      tx[s] = sender.run(*sources[s], connect, nullptr, nullptr, {}, {}, {},
                         ResumeHooks{.sender_journal = sender_journal.get()});
      finished.fetch_add(1);
    });
  }

  // Measured window: [origin + warm-up, origin + warm-up + seconds).
  const std::int64_t started_by = mono_ns() + 30'000'000'000LL;
  while (control.origin_ns.load() == 0 && mono_ns() < started_by &&
         finished.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Snapshots at the edges of the window's parts.
  std::vector<Snapshot> marks;
  const bool started = control.origin_ns.load() != 0;
  if (started) {
    const std::int64_t window_start =
        control.origin_ns.load() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
    const int parts = std::max(1, static_cast<int>(args.seconds / w.part_seconds + 0.5));
    const double part_ns = args.seconds * 1e9 / parts;
    for (int j = 0; j <= parts; ++j) {
      sleep_until_ns(window_start + static_cast<std::int64_t>(part_ns * j));
      marks.push_back(take_snapshot(control));
    }
  }
  control.stop.store(true);
  const std::int64_t drain_by =
      mono_ns() + static_cast<std::int64_t>(kDrainLimitSeconds * 1e9);
  while (finished.load() < threads.size() && mono_ns() < drain_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (finished.load() < threads.size()) {
    // A hung pipeline cannot be joined; report it and end the process.
    std::printf("error: pipeline did not finish %g s after the measured window\n",
                kDrainLimitSeconds);
    std::uint64_t issued = 0;
    for (const auto& source : sources) {
      issued += source->issued();
    }
    print_result(false, std::max<std::uint64_t>(issued, 1),
                 std::max<std::uint64_t>(issued, 1) - control.delivered_chunks.load(), {});
    std::error_code ignored;
    std::filesystem::remove_all(scratch.path, ignored);
    std::_Exit(1);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // ---- output checks ----
  Checks checks;
  checks.expect(started, "pipeline started streaming");
  for (std::size_t s = 0; s < n_senders; ++s) {
    checks.expect(tx[s].ok(), "sender " + std::to_string(s) + " returned ok",
                  tx[s].ok() ? "" : tx[s].status().to_string());
  }
  checks.expect(rx.ok(), "receiver returned ok", rx.ok() ? "" : rx.status().to_string());
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t mismatched = 0;
  bool overflowed = false;
  for (std::size_t s = 0; s < n_senders; ++s) {
    const BenchSource& source = *sources[s];
    attempted += source.issued();
    overflowed = overflowed || source.overflowed();
    mismatched += sinks[s]->mismatched();
    for (std::uint64_t seq = 0; seq < source.issued(); ++seq) {
      const int n = source.record(seq).deliveries.load();
      missing += n == 0 ? 1 : 0;
      duplicated += n > 1 ? 1 : 0;
    }
  }
  const std::uint64_t failed = missing + duplicated + mismatched;
  checks.expect(mismatched == 0, "payloads byte-equal to their inputs",
                u64(mismatched) + " mismatched");
  checks.expect(missing == 0 && duplicated == 0, "every chunk delivered exactly once",
                u64(missing) + " missing, " + u64(duplicated) + " duplicated");
  checks.expect(demux.dropped() == 0, "no chunk of an unknown stream");
  checks.expect(!overflowed, "source stayed within its record capacity");

  std::uint64_t tx_raw = 0;
  std::uint64_t tx_wire = 0;
  double compress_busy = 0;
  double send_busy = 0;
  double compress_slots = 0;  // elapsed x threads
  double send_slots = 0;
  for (const auto& stats : tx) {
    if (stats.ok()) {
      const SenderStats& st = stats.value();
      tx_raw += st.raw_bytes;
      tx_wire += st.wire_bytes;
      compress_busy += st.compress_busy_seconds;
      send_busy += st.send_busy_seconds;
      compress_slots += st.elapsed_seconds * st.compress_threads;
      send_slots += st.elapsed_seconds * st.send_threads;
    }
  }
  const ReceiverStats rs = rx.ok() ? rx.value() : ReceiverStats{};

  if (w.resume && sender_file != nullptr) {
    // Fresh journal objects over the files, as a restarted process sees them.
    FileJournalMedia sender_reread((scratch.path / "sender.journal").string());
    FileJournalMedia receiver_reread((scratch.path / "receiver.journal").string());
    SenderJournal sj(sender_reread, session);
    ReceiverJournal rj(receiver_reread, session);
    const Status s_ok = sj.recover();
    const Status r_ok = rj.recover();
    checks.expect(s_ok.is_ok() && r_ok.is_ok(), "journals recover from their files");
    checks.expect(rj.watermark(0) == control.delivered_chunks.load(),
                  "receiver journal watermark = verified chunks",
                  u64(rj.watermark(0)) + " vs " + u64(control.delivered_chunks.load()));
    std::uint64_t unjournaled = 0;
    for (std::uint64_t seq = 0; seq < sources[0]->issued(); ++seq) {
      if (sources[0]->record(seq).deliveries.load() > 0 && seq >= sj.acked_watermark(0) &&
          !sj.sent_unacked(0, seq)) {
        ++unjournaled;
      }
    }
    checks.expect(unjournaled == 0, "every delivered chunk journaled as sent",
                  u64(unjournaled) + " delivered but not in the sender journal");
  }

  // ---- end-to-end figures, taken over the parts of the window ----
  std::vector<double> part_gbps;
  std::vector<double> part_cpu;
  std::vector<double> part_p50;
  std::vector<double> part_p90;
  std::vector<double> part_rss;
  std::vector<double> part_steal;
  std::vector<double> lateness_ms;
  std::size_t samples = 0;
  for (std::size_t j = 0; j + 1 < marks.size(); ++j) {
    const Snapshot& from = marks[j];
    const Snapshot& to = marks[j + 1];
    std::vector<double> latency_ms;
    for (const auto& source : sources) {
      for (std::uint64_t seq = 0; seq < source->issued(); ++seq) {
        const ChunkRecord& record = source->record(seq);
        if (record.ref_ns < from.t_ns || record.ref_ns >= to.t_ns) {
          continue;
        }
        lateness_ms.push_back(static_cast<double>(record.release_ns - record.ref_ns) * 1e-6);
        if (record.deliveries.load() > 0) {
          latency_ms.push_back(
              static_cast<double>(record.delivered_ns.load() - record.ref_ns) * 1e-6);
        }
      }
    }
    const double gb = static_cast<double>(to.bytes - from.bytes) * 1e-9;
    part_gbps.push_back(ratio(gb * 8, static_cast<double>(to.t_ns - from.t_ns) * 1e-9));
    part_cpu.push_back(ratio(to.cpu_s - from.cpu_s, gb));
    part_p50.push_back(percentile(latency_ms, 0.5));
    part_p90.push_back(percentile(latency_ms, 0.9));
    part_rss.push_back(to.rss_mb);
    part_steal.push_back(ratio(static_cast<double>(to.host.steal - from.host.steal),
                               static_cast<double>(to.host.total - from.host.total)));
    samples = samples == 0 ? latency_ms.size() : std::min(samples, latency_ms.size());
    std::printf("part %zu: throughput_gbps=%.4f cpu_s_per_gb=%.4f latency_p50_ms=%.4f "
                "latency_p90_ms=%.4f rss_mb=%.2f samples=%zu steal=%.2f%%\n",
                j, part_gbps.back(), part_cpu.back(), part_p50.back(), part_p90.back(),
                part_rss.back(), latency_ms.size(), 100.0 * part_steal.back());
  }
  if (samples < 100) {
    std::printf("note: %zu latency samples in a part; p90 needs at least 100\n", samples);
  }
  // Host steal time comes in episodes that can last minutes, and it slows
  // every stage, so throughput, CPU cost and latency are taken from the
  // parts where the host took the least time from this VM. Each stall can
  // leave the allocator holding one more chunk for the rest of the run, so
  // resident memory, which only climbs, is the lower quartile of its samples.
  // p90 is printed but not reported: even a quiet part's p90 moves with
  // steal several times as much as p50 does (see README.md).
  const double throughput_gbps = quiet_median(part_gbps, part_steal);
  const double cpu_s_per_gb = quiet_median(part_cpu, part_steal);
  const double p50 = quiet_median(part_p50, part_steal);
  const double p90 = quiet_median(part_p90, part_steal);
  const double rss_mb = percentile(part_rss, 0.25);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) * 1024 / 1e6;

  const Snapshot first = marks.empty() ? Snapshot{} : marks.front();
  const Snapshot last = marks.empty() ? Snapshot{} : marks.back();
  const double window_s = static_cast<double>(last.t_ns - first.t_ns) * 1e-9;
  std::printf("diag: offered=%" PRIu64 " delivered=%" PRIu64 " window_chunks=%" PRIu64
              " steal=%.2f%% nivcsw=%ld busy_cores=%.2f peak_rss_mb=%.1f\n",
              attempted, control.delivered_chunks.load(), last.chunks - first.chunks,
              100.0 * ratio(static_cast<double>(last.host.steal - first.host.steal),
                            static_cast<double>(last.host.total - first.host.total)),
              last.nivcsw - first.nivcsw, ratio(last.cpu_s - first.cpu_s, window_s),
              peak_rss_mb);
  std::printf("e2e%s: throughput_gbps=%.4f cpu_s_per_gb=%.4f latency_p50_ms=%.4f "
              "latency_p90_ms=%.4f rss_mb=%.2f setup_s=%.4f\n",
              args.trace ? " (traced)" : "", throughput_gbps, cpu_s_per_gb, p50, p90,
              rss_mb, setup_s);

  JsonMetrics metrics;
  if (!args.trace) {
    metrics.add("throughput_gbps", throughput_gbps, "Gbps");
    metrics.add("cpu_s_per_gb", cpu_s_per_gb, "s/GB");
    metrics.add("latency_p50_ms", p50, "ms");
    metrics.add("rss_mb", rss_mb, "MB");
    metrics.add("setup_s", setup_s, "s");
    print_result(checks.all_ok(), attempted, failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer figures ----
  // Wire bytes on two independent paths: the probes around every stream,
  // and the byte counts the pipeline itself reports.
  checks.expect(send_tally.write_bytes.load() == tx_wire,
                "sender wire bytes: probes = SenderStats",
                u64(send_tally.write_bytes.load()) + " vs " + u64(tx_wire));
  checks.expect(recv_tally.read_bytes.load() == rs.wire_bytes,
                "receiver wire bytes: probes = ReceiverStats",
                u64(recv_tally.read_bytes.load()) + " vs " + u64(rs.wire_bytes));
  checks.expect(send_tally.write_bytes.load() == recv_tally.read_bytes.load(),
                "forward bytes written = bytes read");
  checks.expect(recv_tally.write_bytes.load() == send_tally.read_bytes.load(),
                "reverse bytes written = bytes read",
                u64(recv_tally.write_bytes.load()) + " vs " + u64(send_tally.read_bytes.load()));

  std::vector<const Bytes*> replay_inputs;
  for (const auto& pool : inputs.pools()) {
    for (const Bytes& projection : pool) {
      replay_inputs.push_back(&projection);
    }
  }
  const ReplayResult replay = replay_codec(w.codec, replay_inputs, 0.5);
  std::printf("%s\n", replay.reference_check.c_str());
  checks.expect(replay.errors.empty(), "codec replay round trips and reference decode",
                replay.errors.empty() ? "" : replay.errors.front());

  const double run_gb = static_cast<double>(rs.raw_bytes) * 1e-9;
  const auto delivered = static_cast<double>(control.delivered_chunks.load());
  double verify_ns = 0;
  for (const auto& sink : sinks) {
    verify_ns += static_cast<double>(sink->verify_ns());
  }
  std::uint64_t journal_appends = 0;
  std::vector<double> flush_ms;
  for (const TallyMedia* media : {sender_tally_media.get(), receiver_tally_media.get()}) {
    if (media != nullptr) {
      journal_appends += media->appends();
      const std::vector<std::int64_t> flushes = media->flush_ns();
      for (std::size_t i = 0; i < flushes.size(); ++i) {
        flush_ms.push_back(static_cast<double>(flushes[i]) * 1e-6);
      }
    }
  }
  journal_appends -= setup_appends;

  metrics.add("core.compress_cpu_s_per_gb", ratio(compress_busy, run_gb), "s/GB");
  metrics.add("core.send_cpu_s_per_gb", ratio(send_busy, run_gb), "s/GB");
  metrics.add("core.receive_cpu_s_per_gb", ratio(rs.receive_busy_seconds, run_gb), "s/GB");
  metrics.add("core.decompress_cpu_s_per_gb", ratio(rs.decompress_busy_seconds, run_gb),
              "s/GB");
  metrics.add("core.compress_util", ratio(compress_busy, compress_slots), "fraction");
  metrics.add("core.send_util", ratio(send_busy, send_slots), "fraction");
  metrics.add("core.receive_util",
              ratio(rs.receive_busy_seconds, rs.elapsed_seconds * rs.receive_threads),
              "fraction");
  metrics.add("core.decompress_util",
              ratio(rs.decompress_busy_seconds, rs.elapsed_seconds * rs.decompress_threads),
              "fraction");
  metrics.add("core.wire_ratio", ratio(static_cast<double>(tx_raw), static_cast<double>(tx_wire)),
              "ratio");
  metrics.add("codec.compress_mb_s", replay.compress_mb_s, "MB/s");
  metrics.add("codec.decompress_mb_s", replay.decompress_mb_s, "MB/s");
  metrics.add("codec.ratio", replay.ratio, "ratio");
  metrics.add("codec.frame_encode_mb_s", replay.frame_encode_mb_s, "MB/s");
  metrics.add("codec.frame_decode_mb_s", replay.frame_decode_mb_s, "MB/s");
  metrics.add("codec.checksum_gb_s", replay.checksum_gb_s, "GB/s");
  metrics.add("msg.write_s_per_gb",
              ratio(static_cast<double>(send_tally.write_cpu_ns.load()),
                    static_cast<double>(send_tally.write_bytes.load())),
              "s/GB");
  metrics.add("msg.read_s_per_gb",
              ratio(static_cast<double>(recv_tally.read_cpu_ns.load()),
                    static_cast<double>(recv_tally.read_bytes.load())),
              "s/GB");
  metrics.add("msg.writes_per_chunk",
              ratio(static_cast<double>(send_tally.write_calls.load()), delivered), "count");
  metrics.add("msg.reads_per_chunk",
              ratio(static_cast<double>(recv_tally.read_calls.load()), delivered), "count");
  metrics.add("journal.appends_per_chunk",
              ratio(static_cast<double>(journal_appends), delivered), "count");
  metrics.add("journal.flushes_per_chunk",
              ratio(static_cast<double>(flush_ms.size() - setup_flushes), delivered), "count");
  metrics.add("journal.flush_ms_p50", percentile(flush_ms, 0.5), "ms");
  metrics.add("journal.unacked_mb_at_end",
              sender_journal ? static_cast<double>(sender_journal->unacked_bytes()) * 1e-6 : 0,
              "MB");
  metrics.add("source.lateness_ms_p90", w.rate > 0 ? percentile(lateness_ms, 0.9) : 0, "ms");
  metrics.add("sink.verify_s_per_gb",
              ratio(verify_ns, static_cast<double>(control.delivered_bytes.load())), "s/GB");
  print_result(checks.all_ok(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <bulk_lz4|paced_null|paced_resume> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
