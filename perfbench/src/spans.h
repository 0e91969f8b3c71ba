#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/// \file spans.h
/// \brief In-memory span recorder for the traced replay.
///
/// Spans are recorded by the benchmark's own code around calls into the
/// library's public functions; nothing inside the library is instrumented.
/// Each client thread owns one SpanBuffer (no locking, no allocation per
/// span once reserved). A span names its request, its parent span (the
/// innermost span open on the same thread when it began), its layer, and
/// its start and end. Buffers are written out once, when the benchmark ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// \brief The library calls a span can wrap.
enum class Layer : uint8_t {
  kRequest = 0,     ///< One replayed request (root).
  kPipeline,        ///< nlidb::TranslateAllWithTemplar.
  kReplay,          ///< The stage-by-stage re-run of one request.
  kKeywordCands,    ///< KeywordMapper::KeywordCands, one keyword.
  kScoreAndPrune,   ///< KeywordMapper::ScoreAndPrune, one keyword.
  kMapKeywords,     ///< MAPKEYWORDS (a MapOnly call or the pipeline's stage).
  kInferJoins,      ///< INFERJOINS (one JoinsOnly bag or the pipeline's stage).
  kAssemble,        ///< The pipeline's ranking, assembly and tie detection.
  kAppend,          ///< One replayed append batch (root).
  kSqlParse,        ///< sql::Parse, one log entry.
  kQfgAdd,          ///< Templar::AppendLogQuery, one parsed entry.
};
constexpr size_t kLayerCount = 11;

/// \brief Dotted layer name, e.g. "core.infer_joins".
const char* LayerName(Layer layer);

struct Span {
  uint64_t request = 0;
  int32_t parent = -1;  ///< Index in the same buffer; -1 for a root.
  Layer layer = Layer::kRequest;
  uint8_t tenant = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief One thread's spans. Not thread-safe: one buffer per thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span whose parent is the innermost open span; returns its
  /// index.
  int32_t Begin(uint64_t request, Layer layer, uint8_t tenant);
  /// Closes the innermost open span, which must be `index`.
  void End(int32_t index);
  /// Records an already closed child of span `parent` whose interval was
  /// measured elsewhere (the stage times a library hook reports).
  void Add(uint64_t request, int32_t parent, Layer layer, uint8_t tenant,
           int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// \brief RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, uint64_t request, Layer layer, uint8_t tenant)
      : buffer_(buffer), index_(buffer->Begin(request, layer, tenant)) {}
  ~ScopedSpan() { buffer_->End(index_); }
  int32_t index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// \brief Self time of every span: its duration minus the part of its
/// interval covered by its children (overlapping children count once;
/// children reaching outside the parent are clipped to it).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief Writes every span as one tab-separated line (thread, request,
/// parent, layer, tenant, start, end and self time in ns, starts relative
/// to `origin_ns`). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::string>& tenant_names,
                int64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
