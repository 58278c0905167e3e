#include "probe_store.h"

#include <string_view>
#include <utility>

namespace cnrbench {

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

KeyKind ClassifyKey(const std::string& key) {
  if (key.starts_with(".tiered/")) return KeyKind::kMeta;
  if (EndsWith(key, "/MANIFEST")) return KeyKind::kManifest;
  if (EndsWith(key, "/dense")) return KeyKind::kDense;
  if (key.find("/ckpt/") != std::string::npos) return KeyKind::kChunk;
  return KeyKind::kOther;
}

const char* KeyKindName(KeyKind kind) {
  switch (kind) {
    case KeyKind::kChunk: return "chunk";
    case KeyKind::kDense: return "dense";
    case KeyKind::kManifest: return "manifest";
    case KeyKind::kMeta: return "meta";
    case KeyKind::kOther: return "other";
  }
  return "other";
}

ProbeStore::ProbeStore(std::shared_ptr<cnr::storage::ObjectStore> inner, std::string tier,
                       Tracer& tracer)
    : inner_(std::move(inner)), tier_(std::move(tier)), tracer_(tracer) {}

void ProbeStore::Trace(const char* op, const std::string& key, std::uint64_t bytes,
                       Clock::time_point t0, Clock::time_point t1) {
  if (!tracer_.enabled()) return;
  tracer_.Record(tier_ + "." + op, "store", t0, t1,
                 "\"key\":\"" + key + "\",\"kind\":\"" + KeyKindName(ClassifyKey(key)) +
                     "\",\"bytes\":" + std::to_string(bytes));
}

void ProbeStore::Put(const std::string& key, std::vector<std::uint8_t> data) {
  const KeyKind kind = ClassifyKey(key);
  const std::uint64_t bytes = data.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (kind == KeyKind::kChunk && ++chunk_puts_ == drop_chunk_put_) return;
  }
  const auto t0 = Clock::now();
  inner_->Put(key, std::move(data));
  const auto t1 = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (kind != KeyKind::kMeta) {
      ++counters_.puts;
      counters_.put_bytes += bytes;
      std::uint64_t& held = ledger_[key];
      ledger_bytes_ = ledger_bytes_ - held + bytes;
      held = bytes;
      put_us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    if (kind == KeyKind::kManifest) manifest_put_end_[key] = t1;
  }
  Trace("put", key, bytes, t0, t1);
}

std::optional<std::vector<std::uint8_t>> ProbeStore::Get(const std::string& key) {
  const auto t0 = Clock::now();
  auto data = inner_->Get(key);
  const auto t1 = Clock::now();
  const std::uint64_t bytes = data ? data->size() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.gets;
    counters_.get_bytes += bytes;
    if (ClassifyKey(key) == KeyKind::kManifest) ++counters_.manifest_gets;
    get_us_.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  Trace("get", key, bytes, t0, t1);
  return data;
}

bool ProbeStore::Exists(const std::string& key) {
  const auto t0 = Clock::now();
  const bool found = inner_->Exists(key);
  Trace("exists", key, 0, t0, Clock::now());
  return found;
}

bool ProbeStore::Delete(const std::string& key) {
  const auto t0 = Clock::now();
  const bool existed = inner_->Delete(key);
  const auto t1 = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.deletes;
    if (const auto it = ledger_.find(key); it != ledger_.end()) {
      ledger_bytes_ -= it->second;
      ledger_.erase(it);
    }
  }
  Trace("delete", key, 0, t0, t1);
  return existed;
}

std::vector<std::string> ProbeStore::List(const std::string& prefix) {
  const auto t0 = Clock::now();
  auto keys = inner_->List(prefix);
  const auto t1 = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.lists;
  }
  Trace("list", prefix, 0, t0, t1);
  return keys;
}

ProbeCounters ProbeStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<double> ProbeStore::put_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return put_us_;
}

std::vector<double> ProbeStore::get_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return get_us_;
}

std::optional<Clock::time_point> ProbeStore::ManifestPutEnd(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = manifest_put_end_.find(key);
  if (it == manifest_put_end_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t ProbeStore::ledger_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_bytes_;
}

void ProbeStore::DropNthChunkPut(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_chunk_put_ = chunk_puts_ + n;
}

}  // namespace cnrbench
