// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into the
// program's public functions (a Step, a restore, a store operation seen by
// ProbeStore). They stay in memory and are written out once, at the end of
// the run, as Chrome trace-event JSON (chrome://tracing or Perfetto). A
// disabled tracer records nothing, so untraced runs pay one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace cnrbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Records one completed span on the calling thread. `args_json` is the
  // body of a JSON object ("\"k\":1,\"s\":\"x\""), or empty. Returns the
  // span's index (for Annotate), or -1 when disabled.
  long Record(const std::string& name, const std::string& category, Clock::time_point start,
              Clock::time_point end, std::string args_json = {});

  // Appends more JSON members to a recorded span's args (e.g. the
  // StageTimings of a checkpoint, known only after the Step that submitted
  // it has returned).
  void Annotate(long span, const std::string& args_json);

  std::size_t size() const;

  // Writes every span as Chrome trace-event JSON. Returns false on an I/O
  // error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string category;
    std::uint32_t tid = 0;
    double ts_us = 0;
    double dur_us = 0;
    std::string args;
  };

  std::uint32_t ThreadIndexLocked(std::thread::id id);

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                                // guarded by mu_
  std::unordered_map<std::thread::id, std::uint32_t> tids_;  // guarded by mu_
};

}  // namespace cnrbench
