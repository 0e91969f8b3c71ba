#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kPipeline:
      return "nlidb.pipeline";
    case Layer::kReplay:
      return "replay";
    case Layer::kKeywordCands:
      return "core.cands";
    case Layer::kScoreAndPrune:
      return "core.prune";
    case Layer::kMapKeywords:
      return "core.map_keywords";
    case Layer::kInferJoins:
      return "core.infer_joins";
    case Layer::kAssemble:
      return "nlidb.assemble";
    case Layer::kAppend:
      return "append";
    case Layer::kSqlParse:
      return "sql.parse";
    case Layer::kQfgAdd:
      return "qfg.add";
  }
  return "?";
}

int32_t SpanBuffer::Begin(uint64_t request, Layer layer, uint8_t tenant) {
  Span span;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.layer = layer;
  span.tenant = tenant;
  const int32_t index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanBuffer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanBuffer::Add(uint64_t request, int32_t parent, Layer layer,
                     uint8_t tenant, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.layer = layer;
  span.tenant = tenant;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanBuffer*>& buffers,
                const std::vector<std::string>& tenant_names,
                int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "thread\trequest\tparent\tlayer\ttenant\tstart_ns\tend_ns\t"
               "self_ns\n");
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const char* tenant = span.tenant < tenant_names.size()
                               ? tenant_names[span.tenant].c_str()
                               : "?";
      std::fprintf(out, "%zu\t%llu\t%d\t%s\t%s\t%lld\t%lld\t%lld\n", t,
                   static_cast<unsigned long long>(span.request), span.parent,
                   LayerName(span.layer), tenant,
                   static_cast<long long>(span.start_ns - origin_ns),
                   static_cast<long long>(span.end_ns - origin_ns),
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
