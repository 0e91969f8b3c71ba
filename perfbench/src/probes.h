#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

/// \file probes.h
/// \brief Process-level probes read from outside the library: getrusage,
/// /proc/self/io, and the replication directory's snapshot generations.

#include <cstdint>
#include <string>

namespace perfbench {

struct RusageSample {
  double cpu_us = 0;  ///< User + system CPU of the whole process.
  int64_t voluntary_switches = 0;
  int64_t involuntary_switches = 0;
  int64_t max_rss_kb = 0;  ///< Peak resident set so far.
};

RusageSample SampleRusage();

/// \brief Bytes the process has passed to write-family syscalls
/// (/proc/self/io `wchar`); -1 when the file is unreadable.
int64_t ReadWriteChars();

/// \brief Compactions a replication directory has gone through: the highest
/// `base.<generation>.qfg` generation present (a fresh log starts at
/// generation 0 and every compaction writes generation + 1). -1 when the
/// directory holds no base snapshot.
int64_t CountCompactions(const std::string& dir);

/// \brief Write amplification: bytes written per byte of appended SQL text
/// (0 when nothing was appended).
double WriteBytesPerSqlByte(int64_t written_bytes, uint64_t sql_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
