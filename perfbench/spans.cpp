#include <fstream>
#include <unordered_map>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace perfbench {

std::int64_t total_self_ns(const SpanLog& log, std::string_view name) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : log.spans())
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::int64_t total = 0;
  for (const SpanRecord& s : log.spans()) {
    if (name != s.name) continue;
    const auto it = child_ns.find(s.id);
    total += s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
  }
  return total;
}

void write_chrome_trace(const std::string& path,
                        std::span<const SpanLog> logs, std::int64_t epoch_ns) {
  lejit::obs::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const SpanLog& log : logs) {
    for (const SpanRecord& s : log.spans()) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(log.tid());
      w.key("ts").value(static_cast<double>(s.start_ns - epoch_ns) / 1e3);
      w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      w.key("args").begin_object();
      w.key("id").value(s.id);
      w.key("parent").value(s.parent);
      w.key("request").value(s.request);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();

  std::ofstream out(path, std::ios::binary);
  out << w.str() << "\n";
  if (!out) throw lejit::util::RuntimeError("cannot write trace " + path);
}

std::vector<float> TimedModel::logits(std::span<const int> context) const {
  if (log_ == nullptr) return inner_.logits(context);
  const std::int64_t start = now_ns();
  std::vector<float> out = inner_.logits(context);
  const std::int64_t end = now_ns();
  ++calls_;
  busy_ns_ += end - start;
  log_->add(log_->reserve_id(), "lm.logits", start, end, row_span_, request_);
  return out;
}

}  // namespace perfbench
