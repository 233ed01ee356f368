#include "src/core/tracker.h"

#include <algorithm>

namespace fargo::core {

TrackerEntry& TrackerTable::Ensure(const ComletHandle& handle) {
  auto [it, inserted] = entries_.try_emplace(handle.id);
  TrackerEntry& e = it->second;
  if (inserted) {
    e.target = handle.id;
    e.anchor_type = handle.anchor_type;
    e.next = handle.last_known;
  }
  if (e.anchor_type.empty()) e.anchor_type = handle.anchor_type;
  return e;
}

TrackerEntry* TrackerTable::Find(ComletId id) {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const TrackerEntry* TrackerTable::Find(ComletId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

TrackerEntry& TrackerTable::SetLocal(ComletId id, Anchor& anchor,
                                     std::string anchor_type,
                                     std::uint64_t hint_epoch) {
  TrackerEntry& e = entries_[id];
  e.target = id;
  e.local = &anchor;
  e.next = CoreId{};
  e.hint_epoch = hint_epoch;
  if (!anchor_type.empty()) e.anchor_type = std::move(anchor_type);
  if (change_hook_) change_hook_(id);
  return e;
}

TrackerEntry& TrackerTable::SetForward(ComletId id, CoreId next,
                                       std::string anchor_type,
                                       std::uint64_t hint_epoch) {
  TrackerEntry& e = entries_[id];
  // A chain-shortening rewrite of an existing forward counts as a
  // forwarding event — the old route was consumed by the repoint.
  if (!e.is_local() && e.target == id && e.next != next &&
      e.next != CoreId{}) {
    ++e.forwarded;
  }
  e.target = id;
  e.local = nullptr;
  e.next = next;
  e.hint_epoch = hint_epoch;
  if (!anchor_type.empty()) e.anchor_type = std::move(anchor_type);
  if (forward_hook_) forward_hook_(id, next, e.anchor_type);
  if (change_hook_) change_hook_(id);
  return e;
}

bool TrackerTable::MergeHint(ComletId id, CoreId location,
                             std::uint64_t hint_epoch,
                             const std::string& anchor_type) {
  if (TrackerEntry* e = Find(id)) {
    if (e->is_local()) return false;
    if (e->hint_epoch != 0 && hint_epoch <= e->hint_epoch) return false;
    if (e->next == location) {
      // Same route, fresher stamp: refresh in place without a rewrite.
      e->hint_epoch = hint_epoch;
      return true;
    }
  }
  SetForward(id, location, anchor_type, hint_epoch);
  return true;
}

void TrackerTable::Stamp(ComletId id, std::uint64_t hint_epoch) {
  if (TrackerEntry* e = Find(id)) {
    if (hint_epoch > e->hint_epoch) e->hint_epoch = hint_epoch;
  }
}

std::uint64_t TrackerTable::HostedStamp(ComletId id) const {
  const TrackerEntry* e = Find(id);
  return e != nullptr && e->is_local() ? e->hint_epoch : 0;
}

void TrackerTable::AddStubRef(ComletId id) {
  if (TrackerEntry* e = Find(id)) ++e->stub_refs;
}

void TrackerTable::DropStubRef(ComletId id) {
  if (TrackerEntry* e = Find(id)) {
    if (e->stub_refs > 0) --e->stub_refs;
  }
}

std::size_t TrackerTable::CollectGarbage() {
  std::size_t reclaimed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const TrackerEntry& e = it->second;
    if (!e.is_local() && e.stub_refs == 0) {
      it = entries_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  return reclaimed;
}

std::vector<const TrackerEntry*> TrackerTable::All() const {
  std::vector<const TrackerEntry*> out;
  out.reserve(entries_.size());
  // The snapshot's order reaches shell output and Shutdown's final flush of
  // kTrackerUpdate messages, so it must not inherit the hash-map's order.
  // fargolint: order-insensitive(sorted by target id before return)
  for (const auto& [id, e] : entries_) out.push_back(&e);
  std::sort(out.begin(), out.end(),
            [](const TrackerEntry* a, const TrackerEntry* b) {
              return a->target < b->target;
            });
  return out;
}

}  // namespace fargo::core
