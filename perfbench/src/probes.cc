#include "probes.h"

#include <sys/resource.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace perfbench {

RusageSample SampleRusage() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  RusageSample sample;
  sample.cpu_us = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
                  static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  sample.voluntary_switches = usage.ru_nvcsw;
  sample.involuntary_switches = usage.ru_nivcsw;
  sample.max_rss_kb = usage.ru_maxrss;
  return sample;
}

int64_t ReadWriteChars() {
  std::FILE* in = std::fopen("/proc/self/io", "r");
  if (in == nullptr) return -1;
  char line[256];
  int64_t wchar = -1;
  while (std::fgets(line, sizeof(line), in) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "wchar: %lld", &value) == 1) {
      wchar = value;
      break;
    }
  }
  std::fclose(in);
  return wchar;
}

int64_t CountCompactions(const std::string& dir) {
  std::error_code error;
  int64_t highest = -1;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    const std::string prefix = "base.";
    const std::string suffix = ".qfg";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    bool numeric = !digits.empty() && digits.size() < 19;
    for (char c : digits) numeric = numeric && std::isdigit(static_cast<unsigned char>(c));
    if (!numeric) continue;
    const int64_t generation = std::stoll(digits);
    if (generation > highest) highest = generation;
  }
  return highest;
}

double WriteBytesPerSqlByte(int64_t written_bytes, uint64_t sql_bytes) {
  if (sql_bytes == 0 || written_bytes <= 0) return 0;
  return static_cast<double>(written_bytes) / static_cast<double>(sql_bytes);
}

}  // namespace perfbench
