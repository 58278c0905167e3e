// Negative tests of the benchmark's output checks (checks.h).
//
// A check that never fails shows nothing. Each check below runs twice on a
// small model: once on a correct input, where it must pass, and once on a
// wrong one, where it must fail:
//   - model state against the newest checkpoint vs the second-newest state;
//   - the second-newest checkpoint restored vs the live model;
//   - the quantization error bound at the written bit-width vs a tighter one;
//   - reader state of the newest checkpoint vs an older position;
//   - a restore with one chunk Put dropped (the restore or the model check
//     must reject it, and the byte totals must disagree);
//   - the accuracy guard: restored-and-resumed vs an untrained model;
//   - the far-tier-alone restore: from the raw far tier vs through the tier;
//   - far-tier occupancy: probe ledger vs survey, after a write that
//     bypassed the probe.
// Exits 0 only if every case behaves as stated. Run from the checkout root:
//   python3 cnrbench/run.py --selftest
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "checks.h"
#include "core/checknrun.h"
#include "core/recovery.h"
#include "core/service.h"
#include "data/reader.h"
#include "data/synthetic.h"
#include "probe_store.h"
#include "storage/file_store.h"
#include "storage/tiered_store.h"

namespace {

using namespace cnr;
using cnrbench::CheckResult;
using cnrbench::ProbeStore;
using cnrbench::Tracer;

constexpr char kJob[] = "selftest";
constexpr std::uint64_t kIntervalBatches = 4;

int g_failures = 0;

void Expect(const char* name, const CheckResult& r, bool want_ok) {
  const bool good = r.ok == want_ok;
  if (!good) ++g_failures;
  std::printf("%-4s %-58s check %s%s%s\n", good ? "ok" : "FAIL", name,
              r.ok ? "passed" : "failed", r.ok ? "" : ": ", r.detail.c_str());
}

dlrm::ModelConfig SmallModel() {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 4;
  cfg.embedding_dim = 16;
  cfg.table_rows = {2048, 1024};
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.num_shards = 2;
  return cfg;
}

data::DatasetConfig SmallData() {
  data::DatasetConfig cfg;
  cfg.seed = 5;
  cfg.num_dense = 4;
  cfg.tables = {{2048, 2, 1.1}, {1024, 1, 1.1}};
  return cfg;
}

data::ReaderConfig SmallReader() {
  data::ReaderConfig cfg;
  cfg.batch_size = 32;
  cfg.num_workers = 1;
  return cfg;
}

core::CheckNRunConfig SmallCnr() {
  core::CheckNRunConfig cfg;
  cfg.job = kJob;
  cfg.interval_batches = kIntervalBatches;
  cfg.policy = core::PolicyKind::kIntermittent;
  cfg.expected_restarts = 1;  // 2-bit adaptive asymmetric
  cfg.pipeline_threads = 1;
  cfg.encode_threads = 1;
  cfg.store_threads = 1;
  cfg.keep_checkpoints = 2;  // the second-newest checkpoint stays restorable
  return cfg;
}

std::uint64_t SumBytesWritten(const core::CheckNRun& cnr) {
  std::uint64_t total = 0;
  for (const auto& s : cnr.completed()) total += s.bytes_written;
  return total;
}

double TrainAndEval(dlrm::DlrmModel& model, const data::SyntheticDataset& ds,
                    const data::ReaderState& from, const data::Batch& eval) {
  data::ReaderMaster reader(ds, SmallReader(), from);
  reader.AllowBatches(2 * kIntervalBatches);
  while (auto b = reader.NextBatch()) model.TrainBatch(*b);
  return model.EvalBatch(eval).MeanLoss();
}

void ModelAndReaderChecks(Tracer& tracer) {
  const data::SyntheticDataset ds(SmallData());
  const data::Batch eval = ds.GetBatch(0, 1ull << 40, 2048);
  auto store = std::make_shared<ProbeStore>(std::make_shared<storage::InMemoryStore>(), "store",
                                            tracer);
  dlrm::DlrmModel live(SmallModel());
  data::ReaderMaster reader(ds, SmallReader());
  core::CheckNRun cnr(live, reader, store, SmallCnr());
  cnr.Run(2);
  const auto older_copy = cnrbench::CopyModel(live);
  const data::ReaderState older_reader = reader.CollectState();
  const std::uint64_t older_id = cnr.completed().back().checkpoint_id;
  cnr.Run(1);
  const data::ReaderState newest_reader = reader.CollectState();

  dlrm::DlrmModel restored(SmallModel());
  const auto rr = core::RestoreModelPipelined(*store, kJob, restored);
  Expect("model state: newest restore vs live model",
         cnrbench::CheckRestoredModel(restored, live, 2), true);
  Expect("model state: newest restore vs second-newest state",
         cnrbench::CheckRestoredModel(restored, *older_copy, 2), false);
  dlrm::DlrmModel restored_older(SmallModel());
  core::RestoreModelPipelined(*store, kJob, restored_older, older_id);
  Expect("model state: second-newest restore vs live model",
         cnrbench::CheckRestoredModel(restored_older, live, 2), false);
  Expect("row error bound: 2-bit restore held to an 8-bit bound",
         cnrbench::CheckRestoredModel(restored, live, 8), false);
  Expect("reader state: newest vs live reader",
         cnrbench::CheckReaderState(rr.reader_state, newest_reader), true);
  Expect("reader state: newest vs second-newest position",
         cnrbench::CheckReaderState(rr.reader_state, older_reader), false);
  Expect("byte totals: probe Put bytes vs bytes_written",
         cnrbench::CheckEqualTotals("put bytes", store->counters().put_bytes,
                                    SumBytesWritten(cnr)),
         true);

  // Accuracy guard: the restored model and the live one continue on the same
  // batches; an untrained model in the restored one's place must fail.
  const auto live_copy = cnrbench::CopyModel(live);
  const double reference = TrainAndEval(*live_copy, ds, newest_reader, eval);
  const double resumed = TrainAndEval(restored, ds, rr.reader_state, eval);
  dlrm::DlrmModel untrained(SmallModel());
  const double untrained_loss = TrainAndEval(untrained, ds, rr.reader_state, eval);
  Expect("accuracy guard: restored and resumed vs uninterrupted",
         cnrbench::CheckEvalGuard(resumed, reference, 0.01), true);
  Expect("accuracy guard: untrained model vs uninterrupted",
         cnrbench::CheckEvalGuard(untrained_loss, reference, 0.01), false);

  // A lost chunk write: the store swallows one chunk Put of the next
  // checkpoint (an incremental, restored together with its baseline).
  store->DropNthChunkPut(1);
  cnr.Run(1);
  Expect("byte totals: one chunk Put dropped",
         cnrbench::CheckEqualTotals("put bytes", store->counters().put_bytes,
                                    SumBytesWritten(cnr)),
         false);
  dlrm::DlrmModel restored_lossy(SmallModel());
  CheckResult lossy;
  try {
    core::RestoreModelPipelined(*store, kJob, restored_lossy);
    lossy = cnrbench::CheckRestoredModel(restored_lossy, live, 2);
  } catch (const std::exception& e) {
    lossy = CheckResult::Fail(std::string("restore threw: ") + e.what());
  }
  Expect("restore with one chunk Put dropped", lossy, false);
}

void TierChecks(Tracer& tracer) {
  const std::filesystem::path dir = std::filesystem::path(".bench_out") / "tmp" /
                                    ("selftest-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    const data::SyntheticDataset ds(SmallData());
    auto raw_far = std::make_shared<storage::InMemoryStore>();
    auto far = std::make_shared<ProbeStore>(raw_far, "far", tracer);
    auto near = std::make_shared<ProbeStore>(std::make_shared<storage::FileStore>(dir / "near"),
                                             "near", tracer);
    core::ServiceConfig svc;
    svc.encode_threads = 1;
    svc.store_threads = 1;
    svc.executor.max_workers = 2;
    svc.near_store = near;
    core::CheckpointService service(far, svc);
    dlrm::DlrmModel live(SmallModel());
    data::ReaderMaster reader(ds, SmallReader());
    {
      core::CheckNRun cnr(live, reader, service, SmallCnr());
      cnr.Run(3);
      Expect("byte totals: near-tier probe Put bytes vs bytes_written",
             cnrbench::CheckEqualTotals("near put bytes", near->counters().put_bytes,
                                        SumBytesWritten(cnr)),
             true);
    }
    service.tiered_store()->FlushDrains();

    auto restore_from = [&](storage::ObjectStore& source) {
      const auto near_before = near->counters().gets;
      const auto far_before = far->counters().gets;
      dlrm::DlrmModel restored(SmallModel());
      core::RestoreModelPipelined(source, kJob, restored);
      return cnrbench::CheckFarOnlyRestore(near->counters().gets - near_before,
                                           far->counters().gets - far_before);
    };
    Expect("far-tier-alone restore: from the raw far tier", restore_from(*far), true);
    Expect("far-tier-alone restore: through the tiered store", restore_from(service.store()),
           false);

    const auto survey = storage::SurveyTier(*raw_far);
    Expect("far occupancy: TierStats vs survey",
           cnrbench::CheckEqualTotals("far bytes", service.tiered_store()->tier_stats().far_bytes,
                                      survey.bytes),
           true);
    Expect("far occupancy: probe ledger vs survey",
           cnrbench::CheckEqualTotals("far bytes", far->ledger_bytes(), survey.bytes), true);
    raw_far->Put("jobs/selftest/stray", std::vector<std::uint8_t>(100, 1));
    Expect("far occupancy: ledger vs survey after a write around the probe",
           cnrbench::CheckEqualTotals("far bytes", far->ledger_bytes(),
                                      storage::SurveyTier(*raw_far).bytes),
           false);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  Tracer tracer(false);
  ModelAndReaderChecks(tracer);
  TierChecks(tracer);
  std::printf("%s: %d unexpected outcome(s)\n", g_failures ? "FAIL" : "PASS", g_failures);
  return g_failures ? 1 : 0;
}
