#pragma once

// CRC32-verified, atomically rotated storage for one double array — the
// on-disk copy of a rank's checkpoint cut (see DESIGN.md "Checkpoint/
// restart"). A file is a 16-byte header (magic, format version, element
// count), the array, and a trailing CRC32 of header and array. Files are
// written to a temp file and renamed into place, so a crash mid-write never
// yields a file that loads: a missing, truncated or corrupted file never
// decodes to an array.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace quake::util {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). `seed` is the
// running value for streaming use; pass the previous return value.
std::uint32_t crc32(std::span<const unsigned char> data,
                    std::uint32_t seed = 0);

// Retention-aware save: writes `data` to disk first, then rotates the
// generation chain `path` -> `path + ".1"` -> ... -> `path + ".<keep-1>"`
// (the oldest generation is pruned by the rotation's atomic rename) and
// renames the fresh file into `path`. On ANY failure — ENOSPC on the temp
// write, a failed rename — returns false with the previous generation
// chain intact as the restore target, so callers can log and continue the
// solve under disk pressure instead of aborting (see run_parallel's
// `checkpoint/write_failures` counter). `keep` < 1 is treated as 1; when
// `error` is non-null it receives a description of the failure.
bool save_snapshot_rotating(const std::string& path,
                            std::span<const double> data, int keep,
                            std::string* error = nullptr);

// The on-disk name of retention generation `gen` (0 = newest = `path`).
std::string snapshot_generation_path(const std::string& path, int gen);

// Loads the array at `path` into *out, which is written only on kOk. The
// failure cause is split out: kMissing (no file at `path`) vs kCorrupt (a
// file exists but is truncated, mis-tagged, of another format version, or
// fails CRC verification). Restore agreement uses the distinction to count
// generation fallbacks — skipping a corrupt newest generation for an older
// intact one is an event worth surfacing; skipping a file that was never
// written is not.
enum class SnapshotLoadStatus { kOk, kMissing, kCorrupt };
SnapshotLoadStatus load_snapshot_status(const std::string& path,
                                        std::vector<double>* out);

}  // namespace quake::util
