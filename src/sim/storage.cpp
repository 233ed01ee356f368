#include "src/sim/storage.h"

#include <algorithm>

namespace fargo::sim {

const Storage::Log* Storage::FindNamed(const std::string& log) const {
  auto it = logs_.find(log);
  return it == logs_.end() ? nullptr : &it->second;
}

std::uint64_t Storage::Append(const std::string& log,
                              std::vector<std::uint8_t> record) {
  std::lock_guard<std::mutex> lk(mu_);
  Log& l = Named(log);
  ++stats_.appends;
  stats_.appended_bytes += record.size();
  const std::uint64_t index = l.base + l.durable.size() + l.tail.size();
  l.tail.push_back(std::move(record));
  return index;
}

Future<Unit> Storage::Sync(const std::string& log) {
  Promise<Unit> done(sched_);
  std::uint64_t epoch;
  std::size_t covered;
  SimTime latency;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Log& l = Named(log);
    ++stats_.fsyncs;
    epoch = l.epoch;
    covered = l.tail.size();
    latency = fsync_latency_;
  }
  // ScheduleAfter keeps the barrier completion on the issuing Core's
  // locality, so the settled future's continuations run at home.
  sched_.ScheduleAfter(
      latency,
      // fargolint: allow(capture-this) the Runtime owns Storage and clears the queue before teardown
      [this, log, epoch, covered, done]() mutable {
        {
          std::lock_guard<std::mutex> lk(mu_);
          Log& now = Named(log);
          if (now.epoch == epoch) {
            const std::size_t n = std::min(covered, now.tail.size());
            for (std::size_t i = 0; i < n; ++i)
              now.durable.push_back(std::move(now.tail[i]));
            now.tail.erase(now.tail.begin(),
                           now.tail.begin() + static_cast<std::ptrdiff_t>(n));
          }
        }
        // A crashed log settles too: the records are simply lost, and the
        // caller's restart epoch tells it the barrier no longer matters.
        done.Resolve(Unit{});
      });
  return done.future();
}

void Storage::DropVolatile(const std::string& log) {
  std::lock_guard<std::mutex> lk(mu_);
  Log& l = Named(log);
  stats_.dropped_records += l.tail.size();
  l.tail.clear();
  l.pending_blob.reset();
  ++l.epoch;
}

void Storage::TruncateLog(const std::string& log, std::uint64_t new_base) {
  std::lock_guard<std::mutex> lk(mu_);
  Log& l = Named(log);
  if (new_base <= l.base) return;
  const std::uint64_t drop =
      std::min<std::uint64_t>(new_base - l.base, l.durable.size());
  l.durable.erase(l.durable.begin(),
                  l.durable.begin() + static_cast<std::ptrdiff_t>(drop));
  l.base += drop;
  stats_.truncated_records += drop;
}

std::vector<std::vector<std::uint8_t>> Storage::ReadDurable(
    const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  return l != nullptr ? l->durable : std::vector<std::vector<std::uint8_t>>{};
}

std::uint64_t Storage::NextIndex(const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  return l != nullptr ? l->base + l->durable.size() + l->tail.size() : 0;
}

std::uint64_t Storage::BaseIndex(const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  return l != nullptr ? l->base : 0;
}

std::size_t Storage::DurableCount(const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  return l != nullptr ? l->durable.size() : 0;
}

std::size_t Storage::VolatileCount(const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  return l != nullptr ? l->tail.size() : 0;
}

std::uint64_t Storage::DurableBytes(const std::string& log) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Log* l = FindNamed(log);
  if (l == nullptr) return 0;
  std::uint64_t bytes = 0;
  for (const auto& rec : l->durable) bytes += rec.size();
  return bytes;
}

Future<Unit> Storage::PutBlob(const std::string& name,
                              std::vector<std::uint8_t> bytes) {
  Promise<Unit> done(sched_);
  std::uint64_t epoch;
  SimTime latency;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Log& l = Named(name);
    l.pending_blob = std::move(bytes);
    ++stats_.fsyncs;
    epoch = l.epoch;
    latency = fsync_latency_;
  }
  sched_.ScheduleAfter(
      latency,
      // fargolint: allow(capture-this) the Runtime owns Storage and clears the queue before teardown
      [this, name, epoch, done]() mutable {
        {
          std::lock_guard<std::mutex> lk(mu_);
          Log& now = Named(name);
          if (now.epoch == epoch && now.pending_blob.has_value()) {
            blobs_[name] = std::move(*now.pending_blob);
            now.pending_blob.reset();
          }
        }
        done.Resolve(Unit{});
      });
  return done.future();
}

std::optional<std::vector<std::uint8_t>> Storage::GetBlob(
    const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = blobs_.find(name);
  if (it == blobs_.end()) return std::nullopt;
  return it->second;
}

}  // namespace fargo::sim
