// Epoch snapshot store — the publication point between a measurement
// datapath and its concurrent readers.
//
// The live rotation pipeline (core/sharded_pipeline.hpp) closes an epoch off
// the hot path and must hand the finished, immutable snapshot to query
// threads without ever blocking the shard workers. This store is that
// hand-off: a background finalizer publish()es snapshots in epoch order,
// readers take shared ownership of any retained snapshot by sequence
// number, and wait() blocks a reader until a future epoch closes (or the
// producer shuts down). Workers never touch the store, so the only
// contention is reader-vs-publisher on a mutex held for a few pointer
// operations.
//
// Snapshots are immutable once published (the store hands out
// shared_ptr<const T> only through the caller's T being const or the
// caller's discipline); retention is bounded by max_retained with the
// oldest snapshot dropped first (0 keeps every epoch).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

namespace caesar {

template <typename T>
class SnapshotStore {
 public:
  /// Retain at most `max_retained` snapshots (oldest dropped first);
  /// 0 keeps everything.
  explicit SnapshotStore(std::size_t max_retained = 0)
      : max_retained_(max_retained) {}

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  void set_retention(std::size_t max_retained) {
    std::lock_guard<std::mutex> lock(mu_);
    max_retained_ = max_retained;
    prune_locked();
    cv_.notify_all();
  }

  /// Mark the store as having an active producer: wait() blocks for
  /// not-yet-published sequence numbers instead of failing fast.
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
  }

  /// Producer shutdown: wake every wait()er; unpublished sequence
  /// numbers now resolve to nullptr immediately.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    cv_.notify_all();
  }

  /// Publish the next snapshot; sequence numbers are assigned in
  /// publication order starting at 0. Returns the assigned sequence.
  std::uint64_t publish(std::shared_ptr<T> snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t seq = next_seq_++;
    snapshots_.push_back(std::move(snapshot));
    prune_locked();
    cv_.notify_all();
    return seq;
  }

  /// Most recently published snapshot; nullptr before the first publish.
  [[nodiscard]] std::shared_ptr<T> latest() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshots_.empty() ? nullptr : snapshots_.back();
  }

  /// Snapshot `seq`, or nullptr when it was evicted by retention or has
  /// not been published yet.
  [[nodiscard]] std::shared_ptr<T> get(std::uint64_t seq) const {
    std::lock_guard<std::mutex> lock(mu_);
    return get_locked(seq);
  }

  /// Block until snapshot `seq` is published, then return it (nullptr if
  /// retention evicted it in the meantime, or if the store is closed
  /// before `seq` is reached — e.g. the live session stopped).
  [[nodiscard]] std::shared_ptr<T> wait(std::uint64_t seq) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return next_seq_ > seq || !open_; });
    return get_locked(seq);
  }

  /// Sequence number the next publish() will be assigned (== snapshots
  /// published so far).
  [[nodiscard]] std::uint64_t published() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }

  /// Sequence number of the oldest retained snapshot.
  [[nodiscard]] std::uint64_t first_retained() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_ - snapshots_.size();
  }

  [[nodiscard]] std::size_t retained() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshots_.size();
  }

 private:
  [[nodiscard]] std::shared_ptr<T> get_locked(std::uint64_t seq) const {
    const std::uint64_t first = next_seq_ - snapshots_.size();
    if (seq < first || seq >= next_seq_) return nullptr;
    return snapshots_[static_cast<std::size_t>(seq - first)];
  }

  void prune_locked() {
    if (max_retained_ == 0) return;
    while (snapshots_.size() > max_retained_) snapshots_.pop_front();
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<std::shared_ptr<T>> snapshots_;
  std::uint64_t next_seq_ = 0;
  std::size_t max_retained_;
  bool open_ = false;
};

}  // namespace caesar
