#ifndef DISC_CORE_SAVE_JOURNAL_H_
#define DISC_CORE_SAVE_JOURNAL_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"

namespace disc {

/// JSONL journal of definitively finished per-outlier saves — the durable
/// progress record that makes DiscSaver::SaveAll crash-safe (DESIGN.md §11).
///
/// File format: one JSON object per line. The first line is a header
/// identifying the batch; every following line records one outlier whose
/// search reached a *definitive* answer (termination kCompleted or
/// kInfeasible — faulted and other degraded results are deliberately not
/// journaled, so a resumed run searches them again with a fresh budget and
/// the merged output matches an uninterrupted run):
///
///   {"kind":"header","schema_version":1,"n_outliers":12,"arity":4,
///    "epsilon":"0x1.999999999999ap-1","eta":5,"kappa":2}
///   {"kind":"entry","ordinal":3,"termination":"completed","feasible":true,
///    "cost":"0x1.3ae...p+1","lower_bound":"0x0p+0","kappa_exceeded":false,
///    "adjusted_attributes":9,"pruned_sets":17,
///    "adjusted":[{"n":"0x1.8p+1"},{"s":"north"}],
///    "stats":{"nodes_expanded":41,...,"wall_nanos":10042,"start_ns":0}}
///
/// Every double (ε, costs, numeric attribute values) is serialized as a C99
/// hexfloat (printf "%a"), which round-trips the exact bit pattern through
/// text — the foundation of the resume bit-identity guarantee. Appends are
/// flushed line-atomically; a torn final line (crash mid-write) is detected
/// and ignored on read. Keys the reader does not know are ignored, so a
/// journal whose stats carry a since-removed counter still resumes.
/// Duplicate ordinals are legal; the last occurrence wins.
struct SaveJournalHeader {
  std::uint32_t schema_version = 1;
  std::uint64_t n_outliers = 0;
  std::uint64_t arity = 0;
  double epsilon = 0;
  std::uint64_t eta = 0;
  std::uint64_t kappa = 0;
};

/// One journaled outlier: its position in the batch plus the full result.
struct SaveJournalEntry {
  std::uint64_t ordinal = 0;
  SaveResult result;
};

/// A parsed journal: header plus deduplicated entries (ascending ordinal).
struct SaveJournal {
  SaveJournalHeader header;
  std::vector<SaveJournalEntry> entries;

  /// OK iff this journal belongs to the described batch: same outlier
  /// count, arity, constraint and κ, and a schema version we can read.
  /// FailedPrecondition naming the mismatch otherwise.
  Status Matches(std::size_t n_outliers, std::size_t arity,
                 const DistanceConstraint& constraint,
                 std::size_t kappa) const;
};

/// Reads and validates a journal file. A torn trailing line is skipped;
/// any other malformed line fails with its line number. NotFound when the
/// file does not exist.
Result<SaveJournal> ReadSaveJournal(const std::string& path);

/// Append-only journal writer. Append() is thread-safe (SaveAll workers
/// journal from their own threads) and flushes each line before returning,
/// so a crash loses at most the line being written. Hits the
/// `journal.append` fault site once per entry *after* the line is durable —
/// the canonical place to simulate a crash between commits.
class SaveJournalWriter {
 public:
  SaveJournalWriter() = default;
  SaveJournalWriter(const SaveJournalWriter&) = delete;
  SaveJournalWriter& operator=(const SaveJournalWriter&) = delete;

  /// Creates `path` (truncating any previous content) and writes `header`.
  Status Open(const std::string& path, const SaveJournalHeader& header);

  /// Opens `path` for appending after a crash. The existing content is not
  /// re-validated here — pair with ReadSaveJournal + SaveJournal::Matches.
  /// If the file does not exist, behaves like Open(path, header).
  Status OpenAppend(const std::string& path, const SaveJournalHeader& header);

  /// True iff a file is open for appending.
  bool is_open() const { return out_.is_open(); }

  /// Appends one finished outlier and flushes. Thread-safe.
  Status Append(std::uint64_t ordinal, const SaveResult& result);

  void Close();

 private:
  std::mutex mu_;
  std::ofstream out_;
  std::string path_;
};

}  // namespace disc

#endif  // DISC_CORE_SAVE_JOURNAL_H_
