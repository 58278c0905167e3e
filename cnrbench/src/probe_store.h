// ProbeStore: the benchmark's counting and timing ObjectStore decorator.
//
// Wrapped around the caller's store (or around each tier of a tiered store),
// it sees every call the program makes into that store and records, from
// outside the program:
//   - per-operation counts and payload bytes (Put/Get/List/Delete),
//   - per-operation walls (Put and Get samples, for percentiles),
//   - manifest Gets separately (the chain walks of restores and of the
//     post-commit GC),
//   - a ledger of the bytes each live key holds — an occupancy total kept
//     independently of the program's own accounting,
//   - one trace span per call when the tracer is enabled.
// The ".tiered/" metadata namespace (dirty markers, the tier STATS blob) is
// counted apart from data objects, so byte totals compare like with like.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/object_store.h"
#include "trace.h"

namespace cnrbench {

// Key kind of an object, by the program's key conventions.
enum class KeyKind { kChunk, kDense, kManifest, kMeta, kOther };
KeyKind ClassifyKey(const std::string& key);
const char* KeyKindName(KeyKind kind);

struct ProbeCounters {
  std::uint64_t puts = 0;
  std::uint64_t put_bytes = 0;       // data objects (".tiered/" excluded)
  std::uint64_t gets = 0;
  std::uint64_t get_bytes = 0;
  std::uint64_t manifest_gets = 0;
  std::uint64_t lists = 0;
  std::uint64_t deletes = 0;
};

class ProbeStore : public cnr::storage::ObjectStore {
 public:
  // `tier` names the store in trace spans ("store", "near", "far").
  ProbeStore(std::shared_ptr<cnr::storage::ObjectStore> inner, std::string tier, Tracer& tracer);

  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override;
  bool Delete(const std::string& key) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::uint64_t TotalBytes() override { return inner_->TotalBytes(); }
  cnr::storage::StoreStats Stats() override { return inner_->Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return inner_->SizeOf(key);
  }

  ProbeCounters counters() const;
  // Wall samples (microseconds) since construction: of every data-object Put
  // (".tiered/" excluded), and of every Get.
  std::vector<double> put_us() const;
  std::vector<double> get_us() const;
  // Bytes held by live data keys, per the Puts and Deletes this decorator
  // has seen (".tiered/" excluded).
  std::uint64_t ledger_bytes() const;
  // When the newest Put of manifest `key` returned: the moment that
  // checkpoint became valid in this store.
  std::optional<Clock::time_point> ManifestPutEnd(const std::string& key) const;

  // Drops the Put of the `n`-th chunk object from now on (1-based) without
  // telling the caller — a lost write, for the benchmark's negative tests.
  void DropNthChunkPut(std::uint64_t n);

 private:
  void Trace(const char* op, const std::string& key, std::uint64_t bytes, Clock::time_point t0,
             Clock::time_point t1);

  std::shared_ptr<cnr::storage::ObjectStore> inner_;
  const std::string tier_;
  Tracer& tracer_;

  mutable std::mutex mu_;
  ProbeCounters counters_;                          // guarded by mu_
  std::vector<double> put_us_;                      // guarded by mu_
  std::vector<double> get_us_;                      // guarded by mu_
  std::map<std::string, std::uint64_t> ledger_;     // guarded by mu_
  std::map<std::string, Clock::time_point> manifest_put_end_;  // guarded by mu_
  std::uint64_t ledger_bytes_ = 0;                  // guarded by mu_
  std::uint64_t chunk_puts_ = 0;                    // guarded by mu_
  std::uint64_t drop_chunk_put_ = 0;                // guarded by mu_; 0 = none
};

}  // namespace cnrbench
