// The benchmark's own spans: recorded around calls into each engine
// layer's public functions, from outside the engine, on the thread that
// makes the calls. Spans nest; a layer's self time is its spans'
// durations minus the parts their child spans cover. Spans stay in memory
// until the run ends, then go to a Chrome trace_event file.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; spans on it cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Self milliseconds per layer name, summed over every closed span.
  std::map<std::string, double> LayerSelfMs() const;
  /// Writes every span as a Chrome trace_event JSON array; each span's
  /// args name its parent and the operation (root span) it belongs to.
  void WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  struct Record {
    std::string layer;
    int parent = -1;
    int op = -1;
    std::chrono::steady_clock::time_point start, end;
  };
  bool enabled_;
  std::vector<Record> records_;
  int open_ = -1;  // innermost open span
};

class Span {
 public:
  Span(Tracer& tracer, std::string layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Re-labels the span, for calls whose layer is known only once they
  /// return (a walk that turned out to be a cache replay).
  void set_layer(std::string layer);

 private:
  Tracer& tracer_;
  int index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
