// Point-in-time snapshots of table contents, paired with the WAL.
//
// A snapshot captures the raw rows of every base relation on every shard,
// together with the last LSN whose effects the rows include. Recovery loads
// the snapshot, then replays only WAL records with lsn > last_lsn. Derived
// state (lock tables, tenant accounting, compiled-IR operator state) is
// never serialized — restoring base rows and forcing the
// staleness-rebuild contract reconstructs all of it.
//
// File format (all integers little-endian; see storage/coding.h):
//
//   file   := magic "DSSNAP1\0" | u64 last_lsn | u64 body_len
//             | u32 crc32(body) | body
//   body   := u32 nshards | shard*
//   shard  := u32 ntables | table*
//   table  := lp(name) | u64 nrows | row*
//   row    := u32 ncols | value*
//   value  := u8 ValueType | payload   (i64/double: 8 bytes; string: lp)
//
// Atomicity: WriteSnapshot writes snapshot.tmp, fsyncs it, renames it over
// snapshot.bin, then fsyncs the directory. A crash at any point leaves
// either the old snapshot or the new one — never a mix. A leftover .tmp is
// removed by recovery.

#ifndef DECLSCHED_STORAGE_SNAPSHOT_H_
#define DECLSCHED_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/row.h"

namespace declsched::storage {

/// One relation's raw rows as captured from Table::Scan().
struct TableSnapshot {
  std::string name;
  std::vector<Row> rows;
};

/// Everything a snapshot file holds: per-shard table captures plus the LSN
/// up to which their contents already reflect the log.
struct SnapshotData {
  uint64_t last_lsn = 0;
  std::vector<std::vector<TableSnapshot>> shards;
};

/// Conventional file names inside a durability data directory.
std::string WalPath(const std::string& dir);
std::string SnapshotPath(const std::string& dir);
std::string SnapshotTmpPath(const std::string& dir);

/// Atomically replaces `dir`/snapshot.bin with `data` (tmp + fsync + rename
/// + directory fsync). Crash points: "snapshot:begin", "snapshot:mid-write",
/// "snapshot:pre-rename".
Status WriteSnapshot(const std::string& dir, const SnapshotData& data);

/// Loads `dir`/snapshot.bin. NotFound if no snapshot exists (fresh store);
/// any truncation or corruption is a loud Internal error — the snapshot is
/// rename-atomic, so unlike a WAL tail a bad snapshot is never expected.
Result<SnapshotData> ReadSnapshot(const std::string& dir);

}  // namespace declsched::storage

#endif  // DECLSCHED_STORAGE_SNAPSHOT_H_
