#include "replay.h"

#include <dlfcn.h>

#include <chrono>
#include <cstring>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/xxhash.h"

namespace perfbench {
namespace {

using numastream::ByteSpan;
using numastream::Bytes;
using numastream::MutableByteSpan;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Runs `pass` (one sweep over every input) until `min_seconds` have
/// elapsed; returns bytes per second of `bytes_per_pass`.
template <typename Pass>
double rate(std::size_t bytes_per_pass, double min_seconds, Pass&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t passes = 0;
  double elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return static_cast<double>(bytes_per_pass * passes) / elapsed;
}

bool same(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Decodes every block with LZ4_decompress_safe from the host's liblz4, an
/// implementation independent of the one under test.
std::string reference_decode(const std::vector<const Bytes*>& inputs,
                             const std::vector<Bytes>& blocks,
                             const std::vector<std::size_t>& sizes,
                             std::vector<std::string>& errors) {
  void* lib = ::dlopen("liblz4.so.1", RTLD_NOW | RTLD_LOCAL);
  if (lib == nullptr) {
    return "liblz4 reference decode skipped: liblz4.so.1 not found";
  }
  using DecodeFn = int (*)(const char*, char*, int, int);
  auto* decode = reinterpret_cast<DecodeFn>(::dlsym(lib, "LZ4_decompress_safe"));
  if (decode == nullptr) {
    ::dlclose(lib);
    return "liblz4 reference decode skipped: no LZ4_decompress_safe";
  }
  std::size_t matched = 0;
  Bytes out;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    out.assign(inputs[i]->size(), 0);
    const int n = decode(reinterpret_cast<const char*>(blocks[i].data()),
                         reinterpret_cast<char*>(out.data()),
                         static_cast<int>(sizes[i]), static_cast<int>(out.size()));
    if (n >= 0 && same(ByteSpan(out.data(), static_cast<std::size_t>(n)), *inputs[i])) {
      ++matched;
    } else {
      errors.push_back("liblz4 decode of block " + std::to_string(i) +
                       " differs from its input (returned " + std::to_string(n) + ")");
    }
  }
  ::dlclose(lib);
  return "liblz4 reference decode: " + std::to_string(matched) + "/" +
         std::to_string(inputs.size()) + " blocks match their inputs";
}

}  // namespace

ReplayResult replay_codec(const std::string& codec_name,
                          const std::vector<const Bytes*>& inputs,
                          double min_seconds) {
  ReplayResult result;
  const numastream::Codec* codec = numastream::codec_by_name(codec_name);
  if (codec == nullptr) {
    result.errors.push_back("unknown codec " + codec_name);
    return result;
  }
  std::size_t raw_total = 0;
  std::vector<Bytes> blocks;
  for (const Bytes* input : inputs) {
    raw_total += input->size();
    blocks.emplace_back(codec->max_compressed_size(input->size()));
  }
  std::vector<std::size_t> sizes(inputs.size(), 0);

  result.compress_mb_s = rate(raw_total, min_seconds, [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto n = codec->compress(*inputs[i], blocks[i]);
      sizes[i] = n.ok() ? n.value() : 0;
    }
  }) / 1e6;
  std::size_t compressed_total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (sizes[i] == 0) {
      result.errors.push_back("compress failed on input " + std::to_string(i));
    }
    compressed_total += sizes[i];
  }
  result.ratio = compressed_total > 0
                     ? static_cast<double>(raw_total) / static_cast<double>(compressed_total)
                     : 0;

  std::vector<Bytes> decoded;
  for (const Bytes* input : inputs) {
    decoded.emplace_back(input->size());
  }
  result.decompress_mb_s = rate(raw_total, min_seconds, [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      (void)codec->decompress(ByteSpan(blocks[i].data(), sizes[i]), decoded[i]);
    }
  }) / 1e6;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!same(decoded[i], *inputs[i])) {
      result.errors.push_back("decompress(compress(x)) != x on input " + std::to_string(i));
    }
  }

  std::vector<Bytes> frames(inputs.size());
  result.frame_encode_mb_s = rate(raw_total, min_seconds, [&] {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      frames[i] = numastream::encode_frame(*codec, *inputs[i]);
    }
  }) / 1e6;
  std::size_t frame_errors = 0;
  result.frame_decode_mb_s = rate(raw_total, min_seconds, [&] {
    frame_errors = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      auto content = numastream::decode_frame_content(frames[i]);
      frame_errors += content.ok() && same(content.value(), *inputs[i]) ? 0 : 1;
    }
  }) / 1e6;
  if (frame_errors > 0) {
    result.errors.push_back(std::to_string(frame_errors) +
                            " frames did not decode to their inputs");
  }

  volatile std::uint32_t digest = 0;  // keeps the hashing observable
  result.checksum_gb_s = rate(raw_total, min_seconds, [&] {
    for (const Bytes* input : inputs) {
      digest = digest ^ numastream::xxhash32(*input);
    }
  }) / 1e9;

  if (codec->id() == numastream::CodecId::kLz4) {
    result.reference_check = reference_decode(inputs, blocks, sizes, result.errors);
  } else {
    result.reference_check = "liblz4 reference decode: not an lz4 workload";
  }
  return result;
}

}  // namespace perfbench
