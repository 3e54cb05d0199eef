// JSON renderer for the live /__stats introspection endpoint.
//
// One function turns a MetricsRegistry into the documented schema
// (DESIGN.md §9): counters, gauges, peak gauges, exact + hdr histogram
// quantiles (per worker and merged across the ".w<i>." name segment),
// recent spans per sink, and the release timeline. The renderer only
// reads atomics and takes the registry map lock briefly for name
// enumeration — safe to call on a live, loaded proxy. The span shape
// and the per-ring section layout are shared with the /__trace capture
// (trace_export.h), so both documents render them one way.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/json_lite.h"
#include "metrics/metrics.h"

namespace zdr::stats {

struct StatsOptions {
  // Instance answering the scrape (informational).
  std::string instance;
  // Cap on spans emitted per sink (most recent kept). SIZE_MAX ⇒ all
  // (the ?spans=all query).
  size_t maxSpansPerSink = 256;
};

[[nodiscard]] std::string renderStatsJson(MetricsRegistry& reg,
                                          const StatsOptions& opts);

// One document section over a family of rings:
//   "<key>": {"<ring>": {"recorded": R, "dropped": D, "<key>": [...]}}
// with the most recent `cap` records of each ring, oldest first, and
// exact recorded/dropped counters whatever the cap.
template <typename Record, typename RingOf, typename Render>
void writeRingSection(std::ostream& os, const char* key,
                      const std::vector<std::string>& names, RingOf ringOf,
                      size_t cap, Render render) {
  os << "  \"" << key << "\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const SeqlockRing<Record>& ring = ringOf(names[i]);
    std::vector<Record> records;
    ring.snapshot(records);
    const size_t first = records.size() > cap ? records.size() - cap : 0;
    if (i > 0) {
      os << ", ";
    }
    os << "\n    ";
    jsonlite::writeString(os, names[i]);
    os << ": {\"recorded\": " << ring.recorded()
       << ", \"dropped\": " << ring.dropped() << ", \"" << key << "\": [";
    for (size_t j = first; j < records.size(); ++j) {
      if (j > first) {
        os << ", ";
      }
      os << "\n      ";
      render(os, records[j]);
    }
    os << "]}";
  }
  os << "\n  },\n";
}

// The "spans" section of both /__stats and /__trace.
void writeSpanSection(std::ostream& os, MetricsRegistry& reg, size_t cap);

}  // namespace zdr::stats
