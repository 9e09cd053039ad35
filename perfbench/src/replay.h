// Single-threaded replay of the codec layer over a workload's own inputs.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"

namespace perfbench {

struct ReplayResult {
  double compress_mb_s = 0;
  double decompress_mb_s = 0;
  double ratio = 0;  ///< raw bytes / compressed bytes
  double frame_encode_mb_s = 0;
  double frame_decode_mb_s = 0;
  double checksum_gb_s = 0;  ///< xxhash32
  /// Every failed round trip or reference decode, one line each.
  std::vector<std::string> errors;
  /// One line on the independent LZ4 decoder check (run, or why skipped).
  std::string reference_check;
};

/// Times Codec::compress/decompress, encode_frame, decode_frame_content and
/// xxhash32 over `inputs`, repeating whole passes for at least `min_seconds`
/// per operation. Checks decompress(compress(x)) == x and, for lz4, decodes
/// every block again with the host's liblz4 when it is installed.
ReplayResult replay_codec(const std::string& codec_name,
                          const std::vector<const numastream::Bytes*>& inputs,
                          double min_seconds);

}  // namespace perfbench
