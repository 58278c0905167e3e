#include "trace.h"

#include <cstdio>

namespace cnrbench {

namespace {

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

void WriteEscaped(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

std::uint32_t Tracer::ThreadIndexLocked(std::thread::id id) {
  const auto [it, inserted] = tids_.emplace(id, static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

long Tracer::Record(const std::string& name, const std::string& category,
                    Clock::time_point start, Clock::time_point end, std::string args_json) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.category = category;
  span.tid = ThreadIndexLocked(std::this_thread::get_id());
  span.ts_us = Micros(start - origin_);
  span.dur_us = Micros(end - start);
  span.args = std::move(args_json);
  spans_.push_back(std::move(span));
  return static_cast<long>(spans_.size() - 1);
}

void Tracer::Annotate(long span, const std::string& args_json) {
  if (!enabled_ || span < 0 || args_json.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::string& args = spans_.at(static_cast<std::size_t>(span)).args;
  if (!args.empty()) args += ',';
  args += args_json;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs("{\"name\":\"", f);
    WriteEscaped(f, s.name);
    std::fputs("\",\"cat\":\"", f);
    WriteEscaped(f, s.category);
    std::fprintf(f, "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}%s\n",
                 s.tid, s.ts_us, s.dur_us, s.args.c_str(), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace cnrbench
