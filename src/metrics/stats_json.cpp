#include "metrics/stats_json.h"

#include "metrics/json_lite.h"

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

namespace zdr::stats {

namespace {

// One escape/format policy for every emitted document — shared with
// the timeline and release-report writers via json_lite.h.
void jsonString(std::ostream& os, const std::string& s) {
  jsonlite::writeString(os, s);
}

void jsonNumber(std::ostream& os, double v) { jsonlite::writeNumber(os, v); }

void renderHdr(std::ostream& os, const HdrHistogram& h) {
  os << "{\"count\": " << h.count() << ", \"mean\": ";
  jsonNumber(os, h.mean());
  os << ", \"p50\": ";
  jsonNumber(os, h.quantile(0.5));
  os << ", \"p90\": ";
  jsonNumber(os, h.quantile(0.9));
  os << ", \"p99\": ";
  jsonNumber(os, h.quantile(0.99));
  os << ", \"p999\": ";
  jsonNumber(os, h.quantile(0.999));
  os << ", \"max\": ";
  jsonNumber(os, h.max());
  os << "}";
}

// "edge0.w3.request_us" → "edge0.request_us"; no ".w<digits>."
// segment ⇒ unchanged. This is the merge key for the fleet-wide view.
std::string stripWorkerSegment(const std::string& name) {
  size_t pos = 0;
  while ((pos = name.find(".w", pos)) != std::string::npos) {
    size_t digits = pos + 2;
    while (digits < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[digits])) != 0) {
      ++digits;
    }
    if (digits > pos + 2 && digits < name.size() && name[digits] == '.') {
      return name.substr(0, pos) + name.substr(digits);
    }
    if (digits > pos + 2 && digits == name.size()) {
      return name.substr(0, pos);
    }
    pos += 2;
  }
  return name;
}

void renderSpan(std::ostream& os, const trace::Span& s) {
  os << "{\"trace_id\": " << s.traceId << ", \"span_id\": " << s.spanId
     << ", \"parent_id\": " << s.parentId << ", \"kind\": ";
  jsonString(os,
             trace::spanKindName(static_cast<trace::SpanKind>(s.kind)));
  os << ", \"instance\": ";
  jsonString(os, trace::instanceName(s.instance));
  os << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
     << ", \"detail\": " << s.detail << "}";
}

}  // namespace

void writeSpanSection(std::ostream& os, MetricsRegistry& reg, size_t cap) {
  writeRingSection<trace::Span>(
      os, "spans", reg.spanSinkNames(),
      [&reg](const std::string& name) -> auto& { return reg.spanSink(name); },
      cap, renderSpan);
}

std::string renderStatsJson(MetricsRegistry& reg, const StatsOptions& opts) {
  std::ostringstream os;
  os << "{\n  \"instance\": ";
  jsonString(os, opts.instance);
  os << ",\n  \"t_ns\": " << trace::nowNs() << ",\n";

  // Scalar snapshot, split by the instrument-kind prefix snapshot()
  // assigns ("counter." / "gauge." / "peak." / "hist." / "hdr." /
  // "series.").
  auto snap = reg.snapshot();
  auto renderPrefix = [&](const char* key, const std::string& prefix) {
    os << "  \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, value] : snap) {
      if (name.rfind(prefix, 0) != 0) {
        continue;
      }
      if (!first) {
        os << ", ";
      }
      first = false;
      jsonString(os, name.substr(prefix.size()));
      os << ": ";
      jsonNumber(os, value);
    }
    os << "}";
  };
  renderPrefix("counters", "counter.");
  os << ",\n";
  renderPrefix("gauges", "gauge.");
  os << ",\n";
  renderPrefix("peaks", "peak.");
  os << ",\n";
  renderPrefix("hist", "hist.");
  os << ",\n";

  // Hdr histograms: full quantile objects per worker, plus a merged
  // view keyed by the name with its ".w<i>." segment removed.
  auto hdrNames = reg.hdrNames();
  os << "  \"hdr\": {";
  for (size_t i = 0; i < hdrNames.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << "\n    ";
    jsonString(os, hdrNames[i]);
    os << ": ";
    renderHdr(os, reg.hdr(hdrNames[i]));
  }
  os << "\n  },\n  \"hdr_merged\": {";
  {
    std::map<std::string, std::vector<std::string>> groups;
    for (const auto& name : hdrNames) {
      groups[stripWorkerSegment(name)].push_back(name);
    }
    bool first = true;
    for (const auto& [merged, members] : groups) {
      if (!first) {
        os << ", ";
      }
      first = false;
      os << "\n    ";
      jsonString(os, merged);
      os << ": ";
      HdrHistogram combined;
      for (const auto& m : members) {
        combined.mergeFrom(reg.hdr(m));
      }
      renderHdr(os, combined);
    }
  }
  os << "\n  },\n";

  // Spans: per-sink ring contents (most recent maxSpansPerSink).
  writeSpanSection(os, reg, opts.maxSpansPerSink);

  // Release timeline (already a JSON document of its own).
  os << "  \"timeline\": " << reg.timeline().toJson();
  os << "}\n";
  return os.str();
}

}  // namespace zdr::stats
