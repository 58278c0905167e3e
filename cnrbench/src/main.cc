// cnrbench — end-to-end benchmark of Check-N-Run through the DLRM training
// loop (see ../README.md for the workloads, the metric map and the figures).
//
// One run of one workload:
//   set-up    build the dataset, the model, the stores and the
//             CheckpointService; warm-up training (timed as setup_s from
//             process start).
//   rounds    until --seconds have passed, whole rounds of:
//             1. train `intervals_per_round` checkpoint intervals through
//                core::CheckNRun (the timed, checkpointed training loop);
//             2. inject a node failure: drain the writes (and, on the tiered
//                workload, flush the tier drains), drop the controller;
//             3. restore the newest valid checkpoint into freshly built
//                models through the recovery-time restore path
//                (core::RestoreModelPipelined), `restores_per_failure` times,
//                checking each restore against the live model, which is the
//                benchmark's copy of the model as of that checkpoint;
//             4. resume: the first restored model and the live model both
//                train the same next batches, both are evaluated on a fixed
//                held-out range (the accuracy guard), and the restored model
//                carries on as the next round's live model.
//
// Usage:
//   cnrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--variant default|fp32_full|no_ckpt]
// The last line of stdout is one JSON object: correct, attempted, failed and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run also writes its spans to .bench_out/traces/.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/checknrun.h"
#include "core/recovery.h"
#include "core/service.h"
#include "data/reader.h"
#include "data/synthetic.h"
#include "dlrm/model.h"
#include "probe_store.h"
#include "quant/kernels.h"
#include "storage/file_store.h"
#include "storage/latency_store.h"
#include "storage/manifest.h"
#include "storage/object_store.h"
#include "storage/tiered_store.h"
#include "trace.h"
#include "util/crc32.h"

namespace {

using namespace cnr;
using cnrbench::CheckResult;
using cnrbench::Clock;
using cnrbench::ProbeStore;
using cnrbench::Tracer;

// Taken during static initialization, before main: the set-up clock starts
// as close to process start as the program can observe.
const Clock::time_point kProcessStart = Clock::now();

// ---------------------------------------------------------------- inputs ----

constexpr char kJob[] = "bench";

// Model: 114,688 embedding rows x dim 64 (29.4 MB fp32 + 0.46 MB AdaGrad
// state) over 4 simulated devices; the MLPs are < 0.1% of the parameters.
// A workload may divide every table (Workload::table_rows_divisor).
constexpr std::uint64_t kTableRows[] = {65536, 32768, 16384};
constexpr std::size_t kEmbeddingDim = 64;
constexpr int kNumDense = 13;
constexpr std::size_t kShards = 4;

// Training loop: one trainer thread; batches of kBatchSize samples; one
// checkpoint interval is kIntervalBatches batches.
constexpr std::size_t kBatchSize = 128;
constexpr std::uint64_t kIntervalBatches = 128;
constexpr std::uint64_t kWarmupBatches = 2 * kIntervalBatches;

// Thread settings (4 cores): the trainer, 1 reader worker, and a stage
// executor capped at 2 workers shared by every write/restore/drain stage.
// The snapshot copy runs on 1 helper thread while the trainer is stalled.
constexpr std::size_t kReaderWorkers = 1;
constexpr std::size_t kExecutorWorkers = 2;
constexpr std::size_t kSnapshotThreads = 1;

// Accuracy guard: after a restore, the restored and the live model both
// train kEvalIntervals more intervals on the same batches and are evaluated
// on kEvalSamples held-out samples far beyond any training position.
constexpr std::uint64_t kEvalIntervals = 2;
constexpr std::uint64_t kEvalFirstSample = 1ull << 60;
constexpr std::size_t kEvalSamples = 8192;
// Relative log-loss gap allowed between the restored-and-resumed model and
// the uninterrupted one (README "Accuracy guard").
constexpr double kEvalBound = 0.01;

// Remote object store link (the far tier / the direct remote store): 2 ms
// per operation plus 200 MB/s transfer, each way.
storage::LatencyModel RemoteLink() {
  storage::LatencyModel m;
  m.get_latency = std::chrono::microseconds(2000);
  m.put_latency = std::chrono::microseconds(2000);
  m.read_bytes_per_sec = 200'000'000ull;
  m.write_bytes_per_sec = 200'000'000ull;
  return m;
}

enum class Storage { kInMemory, kTieredRemote, kRemote };

struct Workload {
  const char* name;
  core::PolicyKind policy;
  std::uint64_t expected_restarts;  // drives the §6.2.1 bit-width choice
  Storage storage;
  std::size_t chunk_rows;  // rows per stored chunk object
  std::size_t intervals_per_round;
  std::size_t restores_per_failure;
  std::uint64_t table_rows_divisor;  // the model's tables are kTableRows / this
};

constexpr Workload kWorkloads[] = {
    // L <= 1: 2-bit adaptive asymmetric, intermittent baselines, in memory.
    // A restore takes about 4 ms here, so each failure restores 16 times to
    // give its median enough samples.
    {"intermittent_adaptive_inmem", core::PolicyKind::kIntermittent, 1, Storage::kInMemory,
     512, 12, 16, 1},
    // L >= 20: 8-bit plain asymmetric; FileStore near tier over a remote far
    // tier; restores read the far tier alone. Large chunks (~600 KB) let the
    // drainer clear a checkpoint within the next interval despite the far
    // link's per-object latency, so drains rarely overlap the next write.
    // A quarter-size model keeps the near tier's disk churn (every byte
    // written is later unlinked by GC) near 12 MB/s: with the full model, at
    // 27 MB/s, a disk mounted with online discard fell minutes behind on its
    // discards and stalled the near tier's writes and the next run's start.
    {"tiered_remote_8bit", core::PolicyKind::kIntermittent, 20, Storage::kTieredRemote, 8192,
     12, 2, 4},
    // 1 < L <= 3: 3-bit adaptive; consecutive incrementals straight to the
    // remote store; a long chain restored several times.
    {"consecutive_remote_recovery", core::PolicyKind::kConsecutive, 3, Storage::kRemote, 512,
     24, 3, 1},
};

enum class Variant { kDefault, kFp32Full, kNoCheckpoint };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Variant variant = Variant::kDefault;
};

std::uint64_t TableRows(const Workload& wl, std::size_t t) {
  return kTableRows[t] / wl.table_rows_divisor;
}

dlrm::ModelConfig ModelCfg(const Workload& wl, std::uint64_t seed) {
  dlrm::ModelConfig cfg;
  cfg.num_dense = kNumDense;
  cfg.embedding_dim = kEmbeddingDim;
  cfg.table_rows.clear();
  for (std::size_t t = 0; t < std::size(kTableRows); ++t) cfg.table_rows.push_back(TableRows(wl, t));
  cfg.bottom_hidden = {64};
  cfg.top_hidden = {64};
  cfg.num_shards = kShards;
  cfg.seed = seed * 7919 + 17;
  return cfg;
}

// The task (feature distributions and the label teacher) is fixed, so runs
// with different seeds stay comparable; the seed picks where in the
// indexable dataset training starts, and the model's initial weights.
data::DatasetConfig DatasetCfg(const Workload& wl) {
  data::DatasetConfig cfg;
  cfg.seed = 20220404;
  cfg.num_dense = kNumDense;
  cfg.tables = {{TableRows(wl, 0), 4, 1.05}, {TableRows(wl, 1), 2, 1.1}, {TableRows(wl, 2), 1, 1.1}};
  return cfg;
}

// First training sample of a run: seeds own disjoint 2^32-sample ranges
// below the held-out range.
data::ReaderState TrainingStart(std::uint64_t seed) {
  data::ReaderState start;
  start.next_sample = (seed % (1ull << 20)) << 32;
  return start;
}

data::ReaderConfig ReaderCfg() {
  data::ReaderConfig cfg;
  cfg.batch_size = kBatchSize;
  cfg.num_workers = kReaderWorkers;
  cfg.queue_capacity = 8;
  return cfg;
}

// ------------------------------------------------------------ statistics ----

double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
double Ms(std::uint64_t us) { return static_cast<double>(us) / 1000.0; }
double Ms(std::chrono::microseconds us) { return static_cast<double>(us.count()) / 1000.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// ------------------------------------------------------------- recording ----

struct IntervalRecord {
  std::uint64_t checkpoint_id = 0;
  bool full = false;
  double step_ms = 0;      // Step wall, seen from the trainer
  double train_ms = 0;     // the interval's training wall (IntervalStats)
  double snapshot_ms = 0;  // StageTimings::snapshot_us
  Clock::time_point handover;  // end of the interval's training
  double ttv_ms = 0;       // handover -> manifest stored in the caller's store
  long span = -1;          // the Step's trace span
  double encode_ms = 0;
  double encode_queue_ms = 0;
  double store_queue_ms = 0;
  double commit_ms = 0;
  double dirty_rows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rows_written = 0;

  double stall_ms() const { return step_ms - train_ms; }
};

struct RestoreRecord {
  double wall_ms = 0;
  core::pipeline::RestoreTimings timings;
  std::uint64_t bytes_read = 0;
  std::size_t chain_len = 0;
  std::uint64_t near_gets = 0;
  std::uint64_t far_gets = 0;
};

struct RunRecord {
  double setup_s = 0;
  std::vector<IntervalRecord> intervals;
  std::vector<RestoreRecord> restores;
  std::vector<double> eval_logloss;      // restored-and-resumed model, per round
  std::vector<double> eval_reference;    // uninterrupted model, per round
  std::vector<double> flush_ms;
  double loop_wall_s = 0;
  std::uint64_t loop_samples = 0;
  std::uint64_t peak_store_bytes = 0;
  std::uint64_t tier_dirty_bytes_max = 0;
  std::uint64_t manifest_gets_outside_restores = 0;
  std::size_t rounds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void Check(const CheckResult& r, const char* name) {
    if (r.ok) return;
    check_failures.push_back(std::string(name) + ": " + r.detail);
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name, r.detail.c_str());
  }
};

std::string Json(const storage::StageTimings& t) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"snapshot_us\":%llu,\"plan_us\":%llu,\"encode_us\":%llu,\"store_us\":%llu,"
                "\"commit_us\":%llu,\"encode_queue_us\":%llu,\"store_queue_us\":%llu",
                static_cast<unsigned long long>(t.snapshot_us),
                static_cast<unsigned long long>(t.plan_us),
                static_cast<unsigned long long>(t.encode_us),
                static_cast<unsigned long long>(t.store_us),
                static_cast<unsigned long long>(t.commit_us),
                static_cast<unsigned long long>(t.encode_queue_us),
                static_cast<unsigned long long>(t.store_queue_us));
  return buf;
}

std::string Json(const core::pipeline::RestoreTimings& t) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"resolve_us\":%llu,\"fetch_us\":%llu,\"decode_us\":%llu,\"apply_us\":%llu,"
                "\"fetch_queue_us\":%llu,\"decode_queue_us\":%llu,\"apply_queue_us\":%llu,"
                "\"restore_wall_us\":%llu",
                static_cast<unsigned long long>(t.resolve_us),
                static_cast<unsigned long long>(t.fetch_us),
                static_cast<unsigned long long>(t.decode_us),
                static_cast<unsigned long long>(t.apply_us),
                static_cast<unsigned long long>(t.fetch_queue_us),
                static_cast<unsigned long long>(t.decode_queue_us),
                static_cast<unsigned long long>(t.apply_queue_us),
                static_cast<unsigned long long>(t.restore_wall_us));
  return buf;
}

std::string Json(const storage::TierStats& t) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"near_bytes\":%llu,\"far_bytes\":%llu,\"dirty_bytes\":%llu,"
                "\"drained_objects\":%llu,\"drained_bytes\":%llu,\"drain_failures\":%llu,"
                "\"near_hits\":%llu,\"far_hits\":%llu",
                static_cast<unsigned long long>(t.near_bytes),
                static_cast<unsigned long long>(t.far_bytes),
                static_cast<unsigned long long>(t.dirty_bytes),
                static_cast<unsigned long long>(t.drained_objects),
                static_cast<unsigned long long>(t.drained_bytes),
                static_cast<unsigned long long>(t.drain_failures),
                static_cast<unsigned long long>(t.near_hits),
                static_cast<unsigned long long>(t.far_hits));
  return buf;
}

// --------------------------------------------------------------- the run ----

// Everything one run builds in set-up, torn down in reverse order.
struct Bench {
  Options opt;
  const Workload& wl;
  Tracer tracer;
  RunRecord rec;

  std::shared_ptr<storage::InMemoryStore> raw_far;  // the remote store's bytes
  std::shared_ptr<ProbeStore> far;                  // caller's store, probed
  std::shared_ptr<ProbeStore> near;                 // near tier, probed (tiered)
  std::unique_ptr<core::CheckpointService> service;

  std::unique_ptr<data::SyntheticDataset> dataset;
  data::Batch eval_batch;
  std::unique_ptr<dlrm::DlrmModel> live;
  std::unique_ptr<data::ReaderMaster> reader;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  std::uint64_t next_checkpoint_id = 1;

  // Byte totals for the independent cross-check.
  std::uint64_t reported_bytes = 0;

  Bench(const Options& o)
      : opt(o), wl(*o.workload), tracer(o.trace) {}

  // The near tier's directory is left in place under .bench_out/tmp: on a
  // disk mounted with online discard, unlinking it after a run's worth of
  // GC deletes blocked process exit for up to minutes.
  ~Bench() {
    reader.reset();
    service.reset();  // flushes the tier drains, stops the stage workers
  }

  bool checkpointing() const { return opt.variant != Variant::kNoCheckpoint; }

  core::CheckNRunConfig CnrConfig() const {
    core::CheckNRunConfig cfg;
    cfg.job = kJob;
    cfg.interval_batches = kIntervalBatches;
    cfg.policy = wl.policy;
    cfg.quantize = true;
    cfg.dynamic_bitwidth = true;
    cfg.expected_restarts = wl.expected_restarts;
    cfg.chunk_rows = wl.chunk_rows;
    cfg.pipeline_threads = kSnapshotThreads;
    if (opt.variant == Variant::kFp32Full) {
      cfg.policy = core::PolicyKind::kAlwaysFull;
      cfg.quantize = false;
    }
    return cfg;
  }

  void Setup() {
    dataset = std::make_unique<data::SyntheticDataset>(DatasetCfg(wl));
    eval_batch = dataset->GetBatch(0, kEvalFirstSample, kEvalSamples);
    live = std::make_unique<dlrm::DlrmModel>(ModelCfg(wl, opt.seed));

    raw_far = std::make_shared<storage::InMemoryStore>();
    if (wl.storage == Storage::kInMemory) {
      far = std::make_shared<ProbeStore>(raw_far, "store", tracer);
    } else {
      far = std::make_shared<ProbeStore>(
          std::make_shared<storage::LatencyInjectedStore>(raw_far, RemoteLink()),
          wl.storage == Storage::kTieredRemote ? "far" : "store", tracer);
    }

    core::ServiceConfig svc;
    // Mirrors the private service core::CheckNRun builds for itself (strict
    // §4.3 non-overlap: one checkpoint in flight, slot held until commit),
    // on an executor capped at kExecutorWorkers.
    svc.encode_threads = kExecutorWorkers;
    svc.store_threads = 1;
    svc.executor.max_workers = kExecutorWorkers;
    svc.max_inflight_checkpoints = 1;
    svc.release_slot_on_stored = false;
    if (wl.storage == Storage::kTieredRemote) {
      const auto dir = std::filesystem::path(".bench_out") / "tmp" /
                       (std::string(wl.name) + "-" + std::to_string(::getpid()));
      near = std::make_shared<ProbeStore>(std::make_shared<storage::FileStore>(dir / "near"),
                                          "near", tracer);
      svc.near_store = near;
    }
    service = std::make_unique<core::CheckpointService>(far, svc);

    reader = std::make_unique<data::ReaderMaster>(*dataset, ReaderCfg(), TrainingStart(opt.seed));
    reader->AllowBatches(kWarmupBatches);
    while (auto batch = reader->NextBatch()) {
      live->TrainBatch(*batch);
      ++batches;
      samples += batch->size();
    }
    rec.setup_s = std::chrono::duration<double>(Clock::now() - kProcessStart).count();
  }

  std::uint64_t RawFarBytes() { return raw_far->TotalBytes(); }

  std::uint64_t ManifestGets() const {
    return far->counters().manifest_gets + (near ? near->counters().manifest_gets : 0);
  }

  // Step 1: the checkpointed training loop. Returns the newest checkpoint id;
  // `live_is_newest` tells whether the live model is exactly that checkpoint
  // (the round's last interval became valid).
  std::uint64_t TrainCheckpointed(int& coarsest_bits, bool& live_is_newest) {
    core::CheckNRun cnr(*live, *reader, *service, CnrConfig());
    cnr.SetProgress(batches, samples);
    cnr.SetNextCheckpointId(next_checkpoint_id);
    if (rec.rounds > 0) cnr.OnRestartObserved();

    // A successful Step submits one ticket. Tickets are finalized in
    // submission order, each either into cnr.completed() or as exactly one
    // exception out of a later Step (its reap) or Drain, after the good ones
    // finalized by the same call. Following that order pairs each completed
    // checkpoint with the Step that submitted it, whatever failed between.
    std::vector<double> ticket_step_ms;    // per submitted ticket
    std::vector<Clock::time_point> ticket_step_end;  // per submitted ticket
    std::vector<long> ticket_spans;        // per submitted ticket
    std::vector<std::size_t> done_ticket;  // per completed() entry: its ticket
    std::size_t finalized = 0;
    auto account = [&](std::size_t inflight_before, std::size_t completed_before,
                       bool submitted) {
      const std::size_t ok = cnr.completed().size() - completed_before;
      for (std::size_t j = 0; j < ok; ++j) done_ticket.push_back(finalized + j);
      finalized += inflight_before + (submitted ? 1 : 0) - cnr.inflight_checkpoints();
    };

    const std::uint64_t samples_before = samples;
    bool last_step_submitted = false;
    const auto loop_start = Clock::now();
    auto loop_end = loop_start;
    for (std::size_t i = 0; i < wl.intervals_per_round; ++i) {
      const quant::QuantConfig q = cnr.EffectiveQuantConfig();
      if (CnrConfig().quantize && q.method != quant::Method::kNone) {
        coarsest_bits = coarsest_bits == 0 ? q.bits : std::min(coarsest_bits, q.bits);
      }
      const std::size_t inflight_before = cnr.inflight_checkpoints();
      const std::size_t completed_before = cnr.completed().size();
      const auto t0 = Clock::now();
      last_step_submitted = true;
      try {
        cnr.Step();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "checkpoint step failed: %s\n", e.what());
        last_step_submitted = false;
      }
      const auto t1 = Clock::now();
      loop_end = t1;
      account(inflight_before, completed_before, last_step_submitted);
      const long span = tracer.Record(
          "step", "train", t0, t1,
          "\"round\":" + std::to_string(rec.rounds) + ",\"interval\":" + std::to_string(i) +
              ",\"bits\":" + std::to_string(q.bits));
      if (last_step_submitted) {
        ticket_step_ms.push_back(Ms(t1 - t0));
        ticket_step_end.push_back(t1);
        ticket_spans.push_back(span);
      }
      rec.peak_store_bytes = std::max(rec.peak_store_bytes, RawFarBytes());
      SampleTierDirty();
      ++rec.attempted;
    }
    const auto drain_start = Clock::now();
    while (cnr.inflight_checkpoints() > 0) {
      const std::size_t inflight_before = cnr.inflight_checkpoints();
      const std::size_t completed_before = cnr.completed().size();
      try {
        cnr.Drain();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "checkpoint write failed: %s\n", e.what());
      }
      account(inflight_before, completed_before, false);
    }
    tracer.Record("drain", "train", drain_start, Clock::now());
    rec.loop_wall_s += std::chrono::duration<double>(loop_end - loop_start).count();

    const auto& done = cnr.completed();
    rec.failed += wl.intervals_per_round - done.size();
    const double total_rows = static_cast<double>(core::CountTotalRows(*live));
    for (std::size_t i = 0; i < done.size(); ++i) {
      const core::IntervalStats& s = done[i];
      const std::size_t ticket = done_ticket.at(i);
      IntervalRecord r;
      r.checkpoint_id = s.checkpoint_id;
      r.full = s.kind == storage::CheckpointKind::kFull;
      r.step_ms = ticket_step_ms.at(ticket);
      r.train_ms = Ms(s.train_wall);
      r.snapshot_ms = Ms(s.stall_wall);
      // The trainer hands the interval over (harvest, admission wait,
      // snapshot) when its training ends: the Step's stall before it returns.
      r.handover = ticket_step_end.at(ticket) -
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(r.stall_ms()));
      r.span = ticket_spans.at(ticket);
      r.encode_ms = Ms(s.encode_wall);
      r.encode_queue_ms = Ms(s.encode_queue_wall);
      r.store_queue_ms = Ms(s.store_queue_wall);
      r.commit_ms = Ms(s.commit_wall);
      r.dirty_rows = s.dirty_fraction * total_rows;
      r.bytes = s.bytes_written;
      r.rows_written = s.rows_written;
      rec.intervals.push_back(r);
      reported_bytes += s.bytes_written;
      if (tracer.enabled()) {
        storage::StageTimings t;
        t.snapshot_us = static_cast<std::uint64_t>(s.stall_wall.count());
        t.plan_us = static_cast<std::uint64_t>(s.plan_wall.count());
        t.encode_us = static_cast<std::uint64_t>(s.encode_wall.count());
        t.store_us = static_cast<std::uint64_t>(s.store_wall.count());
        t.commit_us = static_cast<std::uint64_t>(s.commit_wall.count());
        t.encode_queue_us = static_cast<std::uint64_t>(s.encode_queue_wall.count());
        t.store_queue_us = static_cast<std::uint64_t>(s.store_queue_wall.count());
        tracer.Annotate(ticket_spans.at(ticket),
                        "\"checkpoint_id\":" + std::to_string(s.checkpoint_id) +
                            ",\"kind\":\"" + (r.full ? "full" : "incremental") +
                            "\",\"bytes_written\":" + std::to_string(s.bytes_written) +
                            ",\"write_wall_us\":" + std::to_string(s.write_wall.count()) +
                            ",\"train_wall_us\":" + std::to_string(s.train_wall.count()) + "," +
                            Json(t));
      }
    }
    rec.loop_samples += cnr.samples_trained() - samples_before;
    batches = cnr.batches_trained();
    samples = cnr.samples_trained();
    live_is_newest = last_step_submitted && !done_ticket.empty() &&
                     done_ticket.back() + 1 == ticket_step_ms.size();
    // Each Step takes at most one id; the next round starts past all of them.
    next_checkpoint_id += wl.intervals_per_round;
    return done.empty() ? 0 : done.back().checkpoint_id;
  }

  // The tier's dirty bytes: after each Step, and after the final drain while
  // the round's last checkpoint is still being replicated.
  void SampleTierDirty() {
    if (auto* tiered = service->tiered_store()) {
      rec.tier_dirty_bytes_max =
          std::max(rec.tier_dirty_bytes_max, tiered->tier_stats().dirty_bytes);
    }
  }

  // Checkpointing off: the same loop shape, training only.
  void TrainUncheckpointed() {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < wl.intervals_per_round; ++i) {
      reader->AllowBatches(kIntervalBatches);
      while (auto batch = reader->NextBatch()) {
        live->TrainBatch(*batch);
        ++batches;
        samples += batch->size();
        rec.loop_samples += batch->size();
      }
    }
    rec.loop_wall_s += std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // Time-to-valid of the round's checkpoints, from `first` on: from the
  // handover until the manifest was stored in the caller's store, which the
  // restore after the failure reads. On the tiered workload that store is
  // the far tier: a checkpoint only on the lost node's near tier is not one
  // the restore can use.
  void ResolveTimeToValid(std::size_t first) {
    for (std::size_t i = first; i < rec.intervals.size(); ++i) {
      IntervalRecord& r = rec.intervals[i];
      const auto valid = far->ManifestPutEnd(storage::Manifest::ManifestKey(kJob, r.checkpoint_id));
      if (!valid) {
        rec.Check(CheckResult::Fail("checkpoint " + std::to_string(r.checkpoint_id) +
                                    " committed but its manifest never reached the "
                                    "caller's store"),
                  "manifest_stored");
        continue;
      }
      r.ttv_ms = Ms(*valid - r.handover);
      tracer.Annotate(r.span, "\"ttv_us\":" + std::to_string(std::llround(r.ttv_ms * 1000)));
    }
  }

  // Step 2 on the tiered workload: everything the node wrote reaches the far
  // tier before the node is lost.
  void FlushTier() {
    storage::TieredStore* tiered = service->tiered_store();
    SampleTierDirty();
    const auto t0 = Clock::now();
    tiered->FlushDrains();
    const auto t1 = Clock::now();
    rec.flush_ms.push_back(Ms(t1 - t0));
    const storage::TierStats stats = tiered->tier_stats();
    tracer.Record("flush_drains", "tier", t0, t1, Json(stats));
    rec.peak_store_bytes = std::max(rec.peak_store_bytes, RawFarBytes());
    // The far tier's data occupancy, three ways: the tier's live stats, a
    // survey of the raw far store, and the far-side probe's ledger.
    const storage::TierSurvey survey = storage::SurveyTier(*raw_far);
    rec.Check(cnrbench::CheckEqualTotals("far tier bytes (TierStats vs survey)",
                                         stats.far_bytes, survey.bytes),
              "far_occupancy");
    rec.Check(cnrbench::CheckEqualTotals("far tier bytes (probe ledger vs survey)",
                                         far->ledger_bytes(), survey.bytes),
              "far_occupancy");
  }

  // Step 3: restore the newest checkpoint into fresh models and check each
  // (against the live model only if it is that checkpoint). Returns the
  // first restored model and its restore result.
  std::unique_ptr<dlrm::DlrmModel> RestoreAndCheck(std::uint64_t newest, bool live_is_newest,
                                                   int coarsest_bits,
                                                   core::RestoreResult& first) {
    const data::ReaderState live_reader = reader->CollectState();
    // On the tiered workload the node (and its near tier) is gone: restore
    // from the far tier alone, through its probe.
    storage::ObjectStore& source = *far;
    core::pipeline::RestoreConfig rcfg;
    rcfg.executor = &service->executor();
    std::unique_ptr<dlrm::DlrmModel> keep;
    for (std::size_t k = 0; k < wl.restores_per_failure; ++k) {
      auto model = std::make_unique<dlrm::DlrmModel>(live->config());
      const std::uint64_t near_before = near ? near->counters().gets : 0;
      const std::uint64_t far_before = far->counters().gets;
      ++rec.attempted;
      core::RestoreResult rr;
      const auto t0 = Clock::now();
      try {
        rr = core::RestoreModelPipelined(source, kJob, *model, std::nullopt, rcfg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "restore failed: %s\n", e.what());
        ++rec.failed;
        continue;
      }
      const auto t1 = Clock::now();
      RestoreRecord r;
      r.wall_ms = Ms(t1 - t0);
      r.timings = rr.timings;
      r.bytes_read = rr.bytes_read;
      r.chain_len = rr.checkpoints_applied;
      r.near_gets = near ? near->counters().gets - near_before : 0;
      r.far_gets = far->counters().gets - far_before;
      rec.restores.push_back(r);
      tracer.Record("restore", "recovery", t0, t1,
                    "\"checkpoint_id\":" + std::to_string(rr.checkpoint_id) +
                        ",\"chain_len\":" + std::to_string(rr.checkpoints_applied) +
                        ",\"bytes_read\":" + std::to_string(rr.bytes_read) + "," +
                        Json(rr.timings));

      rec.Check(cnrbench::CheckEqualTotals("restored checkpoint id", rr.checkpoint_id, newest),
                "newest_restored");
      if (live_is_newest) {
        rec.Check(cnrbench::CheckRestoredModel(*model, *live, coarsest_bits), "model_state");
        rec.Check(cnrbench::CheckReaderState(rr.reader_state, live_reader), "reader_state");
        rec.Check(cnrbench::CheckEqualTotals("restored batch progress", rr.batches_trained,
                                             batches),
                  "progress");
      }
      if (wl.storage == Storage::kTieredRemote) {
        rec.Check(cnrbench::CheckFarOnlyRestore(r.near_gets, r.far_gets), "far_only_restore");
      }
      if (!keep) {
        keep = std::move(model);
        first = rr;
      }
    }
    return keep;
  }

  double Eval(const dlrm::DlrmModel& model) { return model.EvalBatch(eval_batch).MeanLoss(); }

  // Step 4: resume the restored model, continue the live one on the same
  // batches, compare their held-out log-loss; the restored model becomes the
  // live one.
  void ResumeAndEval(std::unique_ptr<dlrm::DlrmModel> restored, const core::RestoreResult& rr) {
    const auto t0 = Clock::now();
    auto resumed_reader = std::make_unique<data::ReaderMaster>(*dataset, ReaderCfg(),
                                                               rr.reader_state);
    const std::uint64_t n = kEvalIntervals * kIntervalBatches;
    std::uint64_t resumed_samples = 0;
    resumed_reader->AllowBatches(n);
    while (auto batch = resumed_reader->NextBatch()) {
      restored->TrainBatch(*batch);
      resumed_samples += batch->size();
    }
    reader->AllowBatches(n);
    while (auto batch = reader->NextBatch()) live->TrainBatch(*batch);
    const auto t1 = Clock::now();
    const double resumed_loss = Eval(*restored);
    const double reference_loss = Eval(*live);
    const auto t2 = Clock::now();
    tracer.Record("resume", "recovery", t0, t1, "\"batches\":" + std::to_string(n));
    tracer.Record("eval", "recovery", t1, t2,
                  "\"logloss\":" + std::to_string(resumed_loss) +
                      ",\"reference_logloss\":" + std::to_string(reference_loss));
    rec.eval_logloss.push_back(resumed_loss);
    rec.eval_reference.push_back(reference_loss);
    rec.Check(cnrbench::CheckEvalGuard(resumed_loss, reference_loss, kEvalBound), "eval_guard");

    reader = std::move(resumed_reader);
    live = std::move(restored);
    batches = rr.batches_trained + n;
    samples = rr.samples_trained + resumed_samples;
  }

  void Round() {
    if (!checkpointing()) {
      TrainUncheckpointed();
      ++rec.rounds;
      return;
    }
    int coarsest_bits = 0;
    bool live_is_newest = false;
    const std::size_t first_interval = rec.intervals.size();
    const std::uint64_t manifest_before = ManifestGets();
    const std::uint64_t newest = TrainCheckpointed(coarsest_bits, live_is_newest);
    rec.manifest_gets_outside_restores += ManifestGets() - manifest_before;
    if (wl.storage == Storage::kTieredRemote) FlushTier();
    ResolveTimeToValid(first_interval);
    if (newest == 0) {
      ++rec.rounds;
      return;
    }
    core::RestoreResult rr;
    auto restored = RestoreAndCheck(newest, live_is_newest, coarsest_bits, rr);
    if (restored) ResumeAndEval(std::move(restored), rr);
    ++rec.rounds;
  }

  void Run() {
    Setup();
    const auto start = Clock::now();
    const auto budget = std::chrono::duration<double>(opt.seconds);
    do {
      Round();
    } while (Clock::now() - start < budget);

    if (checkpointing()) {
      // Independent byte totals: every checkpoint object the program wrote
      // passed through exactly one probe on its way in (the caller's store,
      // or the near tier when tiered), and every one of them is in some
      // checkpoint's reported bytes_written.
      const ProbeStore& writes = near ? *near : *far;
      rec.Check(cnrbench::CheckEqualTotals("checkpoint Put bytes (probe vs bytes_written)",
                                           writes.counters().put_bytes, reported_bytes),
                "byte_totals");
    }
  }
};

// -------------------------------------------------------------- reporting ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const RunRecord& r) {
  std::vector<double> stall, ttv_full, ttv_incr, bytes, restore;
  for (const auto& i : r.intervals) {
    stall.push_back(i.stall_ms());
    (i.full ? ttv_full : ttv_incr).push_back(i.ttv_ms);
    bytes.push_back(static_cast<double>(i.bytes));
  }
  for (const auto& x : r.restores) restore.push_back(x.wall_ms);
  return {
      {"setup_s", r.setup_s, "s"},
      {"train_samples_per_s",
       r.loop_wall_s > 0 ? static_cast<double>(r.loop_samples) / r.loop_wall_s : 0.0,
       "samples/s"},
      {"stall_ms_mean", Mean(stall), "ms"},
      {"stall_ms_p50", Median(stall), "ms"},
      {"ttv_full_ms_p50", Median(ttv_full), "ms"},
      {"ttv_incr_ms_p50", Median(ttv_incr), "ms"},
      {"ckpt_bytes_mean", Mean(bytes), "bytes"},
      {"peak_store_bytes", static_cast<double>(r.peak_store_bytes), "bytes"},
      {"restore_ms_p50", Median(restore), "ms"},
      // The first round's: every run has one, after the same amount of
      // training, so the figure does not drift with the run length.
      {"eval_logloss", r.eval_logloss.empty() ? 0.0 : r.eval_logloss.front(), "nats"},
  };
}

std::vector<Metric> PerLayer(const Bench& b) {
  const RunRecord& r = b.rec;
  const double rounds = static_cast<double>(std::max<std::size_t>(r.rounds, 1));
  std::vector<double> train, snapshot, admission, dirty, encode_full, encode_queue,
      store_queue, commit;
  double fulls = 0, encode_in_bytes = 0, encode_s = 0;
  const double row_bytes = static_cast<double>(kEmbeddingDim * sizeof(float));
  for (const auto& i : r.intervals) {
    train.push_back(i.train_ms);
    snapshot.push_back(i.snapshot_ms);
    admission.push_back(i.stall_ms() - i.snapshot_ms);
    dirty.push_back(i.dirty_rows);
    if (i.full) {
      ++fulls;
      encode_full.push_back(i.encode_ms);
    }
    encode_queue.push_back(i.encode_queue_ms);
    store_queue.push_back(i.store_queue_ms);
    commit.push_back(i.commit_ms);
    encode_in_bytes += static_cast<double>(i.rows_written) * row_bytes;
    encode_s += i.encode_ms / 1000.0;
  }
  std::vector<double> resolve, fetch, decode, apply, restore_bytes, chain, far_gets;
  for (const auto& x : r.restores) {
    resolve.push_back(Ms(x.timings.resolve_us));
    fetch.push_back(Ms(x.timings.fetch_us));
    decode.push_back(Ms(x.timings.decode_us));
    apply.push_back(Ms(x.timings.apply_us));
    restore_bytes.push_back(static_cast<double>(x.bytes_read));
    chain.push_back(static_cast<double>(x.chain_len));
    far_gets.push_back(static_cast<double>(x.far_gets));
  }
  const cnrbench::ProbeCounters store = b.far->counters();
  const double commits = static_cast<double>(std::max<std::size_t>(r.intervals.size(), 1));

  storage::TierStats tier;
  double near_put_p50 = 0;
  if (b.near) {
    tier = b.service->tiered_store()->tier_stats();
    near_put_p50 = Median(b.near->put_us()) / 1000.0;
  }
  const core::pipeline::ExecutorSnapshot exec = b.service->stats().executor;
  auto allotted = [&](const char* stage) {
    for (const auto& s : exec.stages) {
      if (s.name == stage) return static_cast<double>(s.allotted);
    }
    return 0.0;
  };

  return {
      {"train.ms_per_interval_p50", Median(train), "ms"},
      {"snapshot.ms_p50", Median(snapshot), "ms"},
      {"admission.wait_ms_mean", Mean(admission), "ms"},
      {"tracking.dirty_rows_mean", Mean(dirty), "rows"},
      {"policy.fulls", fulls / rounds, "count/round"},
      {"encode.cpu_ms_full_p50", Median(encode_full), "ms"},
      {"encode.mb_per_s", encode_s > 0 ? encode_in_bytes / encode_s / 1e6 : 0.0, "MB/s"},
      {"encode.queue_ms_mean", Mean(encode_queue), "ms"},
      {"store.puts", static_cast<double>(store.puts) / rounds, "count/round"},
      {"store.put_bytes", static_cast<double>(store.put_bytes) / rounds, "bytes/round"},
      {"store.gets", static_cast<double>(store.gets) / rounds, "count/round"},
      {"store.get_bytes", static_cast<double>(store.get_bytes) / rounds, "bytes/round"},
      {"store.lists", static_cast<double>(store.lists) / rounds, "count/round"},
      {"store.deletes", static_cast<double>(store.deletes) / rounds, "count/round"},
      {"store.put_ms_p50", Median(b.far->put_us()) / 1000.0, "ms"},
      {"store.get_ms_p50", Median(b.far->get_us()) / 1000.0, "ms"},
      {"store.queue_ms_mean", Mean(store_queue), "ms"},
      {"gc.manifest_gets_per_commit",
       static_cast<double>(r.manifest_gets_outside_restores) / commits, "count"},
      {"commit.ms_mean", Mean(commit), "ms"},
      {"tier.near_put_ms_p50", near_put_p50, "ms"},
      {"tier.dirty_bytes_max", static_cast<double>(r.tier_dirty_bytes_max), "bytes"},
      {"tier.drained_bytes", static_cast<double>(tier.drained_bytes) / rounds, "bytes/round"},
      {"tier.flush_ms", Median(r.flush_ms), "ms"},
      {"tier.far_gets", Mean(b.near ? far_gets : std::vector<double>{}), "count/restore"},
      {"restore.resolve_ms_p50", Median(resolve), "ms"},
      {"restore.fetch_ms_p50", Median(fetch), "ms"},
      {"restore.decode_ms_p50", Median(decode), "ms"},
      {"restore.apply_ms_p50", Median(apply), "ms"},
      {"restore.bytes_read", Mean(restore_bytes), "bytes"},
      {"restore.chain_len", Mean(chain), "count"},
      {"executor.rebalances", static_cast<double>(exec.rebalances), "count"},
      {"executor.encode_allotted", allotted("encode"), "workers"},
      {"executor.store_allotted", allotted("store"), "workers"},
      {"executor.drain_allotted", allotted("tier-drain"), "workers"},
  };
}

void PrintResult(bool correct, const RunRecord& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintSummary(const Bench& b, const std::vector<Metric>& e2e) {
  const RunRecord& r = b.rec;
  std::fprintf(stderr,
               "workload %s seed %llu: %zu rounds, %zu checkpoints, %zu restores, kernels %s, "
               "crc32c %s\n",
               b.wl.name, static_cast<unsigned long long>(b.opt.seed), r.rounds,
               r.intervals.size(), r.restores.size(),
               quant::SimdDisabledByEnv() || quant::Avx2CodecKernelsOrNull() == nullptr
                   ? "scalar"
                   : "avx2",
               util::Crc32cImplName());
  for (const auto& m : e2e) {
    std::fprintf(stderr, "  %-22s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!r.eval_reference.empty()) {
    double worst_gap = 0;
    for (std::size_t i = 0; i < r.eval_logloss.size(); ++i) {
      worst_gap = std::max(worst_gap, std::fabs(r.eval_logloss[i] - r.eval_reference[i]) /
                                          r.eval_reference[i]);
    }
    std::fprintf(stderr, "  eval reference (uninterrupted) %.6f, worst relative gap %.6f\n",
                 r.eval_reference.front(), worst_gap);
  }
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "cnrbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: cnrbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--variant default|fp32_full|no_ckpt]\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (!o.workload) Usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--variant") {
      if (value == "default") {
        o.variant = Variant::kDefault;
      } else if (value == "fp32_full") {
        o.variant = Variant::kFp32Full;
      } else if (value == "no_ckpt") {
        o.variant = Variant::kNoCheckpoint;
      } else {
        Usage(("unknown variant " + value).c_str());
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!o.workload) Usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  Bench bench(opt);
  bench.Run();

  const bool correct = bench.rec.check_failures.empty();
  const auto e2e = EndToEnd(bench.rec);
  PrintSummary(bench, e2e);
  if (opt.trace) {
    const std::filesystem::path dir = std::filesystem::path(".bench_out") / "traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        (dir / (std::string(opt.workload->name) + "-seed" + std::to_string(opt.seed) + ".json"))
            .string();
    if (!bench.tracer.WriteChromeJson(path)) {
      std::fprintf(stderr, "cnrbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", bench.tracer.size(), path.c_str());
  }
  PrintResult(correct, bench.rec, opt.trace ? PerLayer(bench) : e2e);
  return 0;
}
