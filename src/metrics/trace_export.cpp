#include "metrics/trace_export.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "metrics/json_lite.h"
#include "metrics/stats_json.h"

namespace zdr::fr {

namespace {

void jsonString(std::ostream& os, const std::string& s) {
  jsonlite::writeString(os, s);
}

void renderEvent(std::ostream& os, const Event& e) {
  auto kind = static_cast<EventKind>(e.kind);
  os << "{\"t_ns\": " << e.tNs << ", \"kind\": ";
  jsonString(os, eventKindName(kind));
  os << ", \"instance\": ";
  jsonString(os, trace::instanceName(e.instance));
  os << ", \"dur_ns\": " << e.durNs << ", \"trace_id\": " << e.traceId
     << ", \"detail\": " << e.detail;
  // Decode the detail word for the kinds that pack structure into it,
  // so offline consumers never need the packing rules.
  if (kind == EventKind::kDisruption) {
    os << ", \"cause\": ";
    jsonString(os, disruptionCauseName(causeOf(e.detail)));
    os << ", \"phase\": ";
    jsonString(os, releasePhaseName(phaseOf(e.detail)));
  } else if (kind == EventKind::kLoopStall || kind == EventKind::kTimerFire ||
             kind == EventKind::kFaultInjected ||
             kind == EventKind::kAccept) {
    os << ", \"tag\": ";
    jsonString(os,
               trace::instanceName(static_cast<uint32_t>(e.detail)));
  }
  os << "}";
}

// Most-recent-`cap` window over a snapshot vector.
size_t firstIndexFor(size_t size, size_t cap) {
  return size > cap ? size - cap : 0;
}

}  // namespace

std::string renderTraceCapture(MetricsRegistry& reg,
                               const TraceCaptureOptions& opts) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"zdr.trace_capture.v1\",\n  \"instance\": ";
  jsonString(os, opts.instance);
  os << ",\n  \"t_ns\": " << trace::nowNs() << ",\n";

  stats::writeSpanSection(os, reg, opts.maxSpansPerSink);
  stats::writeRingSection<Event>(
      os, "events", reg.eventRingNames(),
      [&reg](const std::string& name) -> auto& { return reg.eventRing(name); },
      opts.maxEventsPerRing, renderEvent);

  os << "  \"timeline\": " << reg.timeline().toJson();
  os << "}\n";
  return os.str();
}

namespace {

// Chrome trace-event timestamps are µs doubles; spans/events carry ns.
double toUs(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

void chromeEvent(std::ostream& os, bool& first, const std::string& body) {
  if (!first) {
    os << ",";
  }
  first = false;
  os << "\n    " << body;
}

}  // namespace

std::string renderChromeTrace(MetricsRegistry& reg,
                              const TraceCaptureOptions& opts) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;

  // One Perfetto track ("thread") per recorded instance, keyed by its
  // interned id; pid 1 groups the whole capture as one process.
  auto track = [&](uint32_t instance) {
    std::ostringstream b;
    b << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
      << instance << ", \"args\": {\"name\": ";
    jsonString(b, trace::instanceName(instance));
    b << "}}";
    return b.str();
  };
  std::vector<uint32_t> namedTracks;
  auto ensureTrack = [&](uint32_t instance) {
    if (std::find(namedTracks.begin(), namedTracks.end(), instance) ==
        namedTracks.end()) {
      namedTracks.push_back(instance);
      chromeEvent(os, first, track(instance));
    }
  };

  // Spans → "X" complete events. Perfetto nests overlapping complete
  // events on one track by time containment, so a request span and the
  // upstream spans it covers render as a flame.
  auto spans = reg.collectSpans();
  std::sort(spans.begin(), spans.end(),
            [](const trace::Span& a, const trace::Span& b) {
              return a.startNs < b.startNs;
            });
  size_t firstSpan = firstIndexFor(spans.size(), opts.maxSpansPerSink);
  for (size_t i = firstSpan; i < spans.size(); ++i) {
    const auto& s = spans[i];
    ensureTrack(s.instance);
    std::ostringstream b;
    b << "{\"ph\": \"X\", \"name\": ";
    jsonString(b, trace::spanKindName(static_cast<trace::SpanKind>(s.kind)));
    b << ", \"cat\": \"span\", \"pid\": 1, \"tid\": " << s.instance
      << ", \"ts\": " << toUs(s.startNs) << ", \"dur\": "
      << toUs(s.endNs > s.startNs ? s.endNs - s.startNs : 0)
      << ", \"args\": {\"trace_id\": " << s.traceId
      << ", \"span_id\": " << s.spanId << ", \"detail\": " << s.detail
      << "}}";
    chromeEvent(os, first, b.str());
  }

  // Flight-recorder events: stalls and slow iterations keep their
  // duration ("X"), everything else is an instant ("i").
  auto events = reg.collectEvents();
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.tNs < b.tNs; });
  size_t firstEvent = firstIndexFor(events.size(), opts.maxEventsPerRing);
  for (size_t i = firstEvent; i < events.size(); ++i) {
    const auto& e = events[i];
    auto kind = static_cast<EventKind>(e.kind);
    ensureTrack(e.instance);
    std::ostringstream b;
    std::string name = eventKindName(kind);
    if (kind == EventKind::kLoopStall || kind == EventKind::kTimerFire ||
        kind == EventKind::kFaultInjected || kind == EventKind::kAccept) {
      name += ":";
      name += trace::instanceName(static_cast<uint32_t>(e.detail));
    } else if (kind == EventKind::kDisruption) {
      name += ":";
      name += disruptionCauseName(causeOf(e.detail));
    }
    if (e.durNs > 0) {
      b << "{\"ph\": \"X\", \"name\": ";
      jsonString(b, name);
      b << ", \"cat\": \"recorder\", \"pid\": 1, \"tid\": " << e.instance
        << ", \"ts\": " << toUs(e.tNs >= e.durNs ? e.tNs - e.durNs : 0)
        << ", \"dur\": " << toUs(e.durNs);
    } else {
      b << "{\"ph\": \"i\", \"s\": \"t\", \"name\": ";
      jsonString(b, name);
      b << ", \"cat\": \"recorder\", \"pid\": 1, \"tid\": " << e.instance
        << ", \"ts\": " << toUs(e.tNs);
    }
    b << ", \"args\": {\"trace_id\": " << e.traceId
      << ", \"detail\": " << e.detail;
    if (kind == EventKind::kDisruption) {
      b << ", \"phase\": ";
      jsonString(b, releasePhaseName(phaseOf(e.detail)));
    }
    b << "}}";
    chromeEvent(os, first, b.str());
  }

  // Release-timeline phases: async begin/end pairs on a per-instance
  // scope (id keeps concurrent windows of one phase apart), points as
  // global instants.
  uint64_t asyncId = 1;
  for (const auto& w : reg.timeline().windows()) {
    std::string scope = w.instance + "/" + w.phase;
    uint64_t endNs = w.endNs == UINT64_MAX ? trace::nowNs() : w.endNs;
    for (const char* ph : {"b", "e"}) {
      std::ostringstream b;
      b << "{\"ph\": \"" << ph << "\", \"cat\": \"release\", \"id\": "
        << asyncId << ", \"name\": ";
      jsonString(b, scope);
      b << ", \"pid\": 1, \"tid\": 0, \"ts\": "
        << toUs(ph[0] == 'b' ? w.beginNs : endNs) << "}";
      chromeEvent(os, first, b.str());
    }
    ++asyncId;
  }
  for (const auto& ev : reg.timeline().events()) {
    if (ev.mark != PhaseTimeline::Mark::kPoint) {
      continue;
    }
    std::ostringstream b;
    b << "{\"ph\": \"i\", \"s\": \"g\", \"cat\": \"release\", \"name\": ";
    jsonString(b, ev.instance + "/" + ev.phase);
    b << ", \"pid\": 1, \"tid\": 0, \"ts\": " << toUs(ev.tNs)
      << ", \"args\": {\"detail\": ";
    jsonString(b, ev.detail);
    b << "}}";
    chromeEvent(os, first, b.str());
  }

  os << "\n  ]}\n";
  return os.str();
}

}  // namespace zdr::fr
