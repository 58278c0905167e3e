#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "util/serialize.h"

namespace cnrbench {

namespace {

// Per-element float slack of a de-quantized value: a few ulps of the row's
// magnitude (scale and zero point are rounded to float before use).
constexpr double kRelativeSlack = 1e-6;

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

}  // namespace

double RowErrorBound(std::span<const float> row, int bits) {
  if (row.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(row.begin(), row.end());
  const double range = static_cast<double>(*hi) - static_cast<double>(*lo);
  const double magnitude = std::max(std::fabs(*lo), std::fabs(*hi));
  const double dim_root = std::sqrt(static_cast<double>(row.size()));
  const double quant =
      bits <= 0 ? 0.0 : range / (2.0 * (std::ldexp(1.0, bits) - 1.0));
  return dim_root * (quant + kRelativeSlack * magnitude) + 1e-30;
}

CheckResult CheckRestoredModel(const cnr::dlrm::DlrmModel& restored,
                               const cnr::dlrm::DlrmModel& reference, int coarsest_bits) {
  if (!restored.DenseEquals(reference)) return CheckResult::Fail("dense MLP state differs");
  if (restored.num_tables() != reference.num_tables()) {
    return CheckResult::Fail("table count differs");
  }
  for (std::size_t t = 0; t < reference.num_tables(); ++t) {
    const auto& want_table = reference.table(t);
    const auto& got_table = restored.table(t);
    if (got_table.num_shards() != want_table.num_shards()) {
      return CheckResult::Fail("shard count differs in table " + std::to_string(t));
    }
    for (std::size_t s = 0; s < want_table.num_shards(); ++s) {
      const auto& want = want_table.Shard(s);
      const auto& got = got_table.Shard(s);
      if (got.num_rows() != want.num_rows() || got.dim() != want.dim()) {
        return CheckResult::Fail("shard shape differs");
      }
      for (std::size_t r = 0; r < want.num_rows(); ++r) {
        const std::string where = "table " + std::to_string(t) + " shard " +
                                  std::to_string(s) + " row " + std::to_string(r);
        if (!SameBits(got.AdagradState(r), want.AdagradState(r))) {
          return CheckResult::Fail("AdaGrad accumulator differs at " + where);
        }
        const auto want_row = want.Row(r);
        const auto got_row = got.Row(r);
        double err2 = 0.0;
        for (std::size_t i = 0; i < want_row.size(); ++i) {
          const double d = static_cast<double>(got_row[i]) - static_cast<double>(want_row[i]);
          err2 += d * d;
        }
        const double err = std::sqrt(err2);
        const double bound = RowErrorBound(want_row, coarsest_bits);
        if (!(err <= bound)) {
          return CheckResult::Fail("row L2 error " + std::to_string(err) + " > bound " +
                                   std::to_string(bound) + " at " + where);
        }
      }
    }
  }
  return CheckResult::Pass();
}

CheckResult CheckReaderState(const cnr::data::ReaderState& restored,
                             const cnr::data::ReaderState& reference) {
  if (restored == reference) return CheckResult::Pass();
  return CheckResult::Fail("reader state (batch " + std::to_string(restored.next_batch_id) +
                           ", sample " + std::to_string(restored.next_sample) +
                           ") != reference (batch " + std::to_string(reference.next_batch_id) +
                           ", sample " + std::to_string(reference.next_sample) + ")");
}

CheckResult CheckEvalGuard(double restored_logloss, double reference_logloss, double bound) {
  const double gap = std::fabs(restored_logloss - reference_logloss);
  if (std::isfinite(gap) && gap <= bound * reference_logloss) return CheckResult::Pass();
  return CheckResult::Fail("eval log-loss " + std::to_string(restored_logloss) +
                           " vs uninterrupted " + std::to_string(reference_logloss) +
                           ": relative gap above " + std::to_string(bound));
}

CheckResult CheckEqualTotals(const std::string& what, std::uint64_t counted,
                             std::uint64_t reported) {
  if (counted == reported) return CheckResult::Pass();
  return CheckResult::Fail(what + ": counted " + std::to_string(counted) + " != " +
                           std::to_string(reported));
}

CheckResult CheckFarOnlyRestore(std::uint64_t near_gets, std::uint64_t far_gets) {
  if (near_gets == 0 && far_gets > 0) return CheckResult::Pass();
  return CheckResult::Fail("restore read " + std::to_string(near_gets) + " near / " +
                           std::to_string(far_gets) + " far objects; expected far tier alone");
}

std::unique_ptr<cnr::dlrm::DlrmModel> CopyModel(const cnr::dlrm::DlrmModel& src) {
  auto copy = std::make_unique<cnr::dlrm::DlrmModel>(src.config());
  cnr::util::Writer w;
  src.SerializeDense(w);
  const auto dense = w.TakeBytes();
  cnr::util::Reader r(dense);
  copy->RestoreDense(r);
  for (std::size_t t = 0; t < src.num_tables(); ++t) {
    for (std::size_t s = 0; s < src.table(t).num_shards(); ++s) {
      const auto& from = src.table(t).Shard(s);
      auto& to = copy->table(t).Shard(s);
      for (std::size_t row = 0; row < from.num_rows(); ++row) {
        to.RestoreRow(row, from.Row(row), from.AdagradState(row));
      }
    }
  }
  return copy;
}

}  // namespace cnrbench
