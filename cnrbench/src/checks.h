// Output checks of the end-to-end benchmark.
//
// Each check is computed apart from the program: from the benchmark's own
// reference copy of the model, its own byte counts (ProbeStore), or a raw
// survey of a store — never from a figure the program reports about itself.
// They are property bounds and independent totals, not recorded outputs, so
// a correct program passes them on every seed. selftest.cc shows each one
// failing on a wrong input.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "data/reader.h"
#include "dlrm/model.h"

namespace cnrbench {

struct CheckResult {
  bool ok = true;
  std::string detail;  // first violation, when !ok

  static CheckResult Pass() { return {}; }
  static CheckResult Fail(std::string detail) { return {false, std::move(detail)}; }
};

// L2 error bound of plain asymmetric quantization of `row` at `bits`:
// sqrt(dim) * (max - min) / (2 * (2^bits - 1)), plus float slack. Adaptive
// asymmetric starts its search at the full [min, max] range and keeps the
// best candidate, so its error can only be smaller. bits == 0 means the row
// was stored unquantized (the bound is the slack alone).
double RowErrorBound(std::span<const float> row, int bits);

// A model restored from the newest checkpoint against the benchmark's copy
// of the model as of that checkpoint:
//   - dense MLP state bit-identical,
//   - every embedding row's AdaGrad accumulator bit-identical,
//   - every embedding row within RowErrorBound at `coarsest_bits`.
CheckResult CheckRestoredModel(const cnr::dlrm::DlrmModel& restored,
                               const cnr::dlrm::DlrmModel& reference, int coarsest_bits);

CheckResult CheckReaderState(const cnr::data::ReaderState& restored,
                             const cnr::data::ReaderState& reference);

// |restored - reference| <= bound * reference (relative log-loss gap).
CheckResult CheckEvalGuard(double restored_logloss, double reference_logloss, double bound);

// Two independently obtained byte totals must agree exactly.
CheckResult CheckEqualTotals(const std::string& what, std::uint64_t counted,
                             std::uint64_t reported);

// A restore that must have read the far tier alone: no near-tier Get during
// it, and at least one far-tier Get.
CheckResult CheckFarOnlyRestore(std::uint64_t near_gets, std::uint64_t far_gets);

// Bit-exact copy of every checkpointable piece of `src` (dense MLPs, every
// embedding row and accumulator) into a fresh model of the same shape.
std::unique_ptr<cnr::dlrm::DlrmModel> CopyModel(const cnr::dlrm::DlrmModel& src);

}  // namespace cnrbench
