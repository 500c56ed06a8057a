#include "spans.h"

#include <cstdio>

#include "process.h"

namespace perfbench {

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

Span::Span(Tracer& tracer, std::string layer) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Tracer::Record record;
  record.layer = std::move(layer);
  record.parent = tracer_.open_;
  index_ = static_cast<int>(tracer_.records_.size());
  record.op = record.parent < 0 ? index_ : tracer_.records_[record.parent].op;
  tracer_.records_.push_back(std::move(record));
  tracer_.open_ = index_;
  tracer_.records_.back().start = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (index_ < 0) return;
  Tracer::Record& record = tracer_.records_[index_];
  record.end = std::chrono::steady_clock::now();
  tracer_.open_ = record.parent;
}

void Span::set_layer(std::string layer) {
  if (index_ >= 0) tracer_.records_[index_].layer = std::move(layer);
}

std::map<std::string, double> Tracer::LayerSelfMs() const {
  std::map<std::string, double> self;
  for (const Record& record : records_) {
    double ms = Ms(record.end - record.start);
    self[record.layer] += ms;
    if (record.parent >= 0) self[records_[record.parent].layer] -= ms;
  }
  return self;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  if (records_.empty()) return;
  auto origin = records_.front().start;
  std::string json = "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %d, \"op\": %d}}%s\n",
                  record.layer.c_str(), 1000 * Ms(record.start - origin),
                  1000 * Ms(record.end - record.start), i, record.parent,
                  record.op, i + 1 == records_.size() ? "" : ",");
    json += line;
  }
  json += "]\n";
  WriteFileOrDie(path, json);
}

}  // namespace perfbench
