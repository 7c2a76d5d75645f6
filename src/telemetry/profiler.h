// Event profiler: wall-clock cost of simulator event dispatch, bucketed by
// the component tag passed at scheduling time. Attached to a Simulator via
// set_profiler(); when absent, dispatch skips the steady_clock reads
// entirely. Also tracks peak event-queue depth and end-to-end events/sec,
// answering "where does a run's wall time go?" without an external profiler.
// Tags are static strings, so a tag's bucket is found by its pointer; the
// text decides the bucket only the first time a pointer is seen, so two
// pointers to equal text share one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace oo::telemetry {

class EventProfiler {
 public:
  struct Bucket {
    std::string tag;
    std::int64_t events = 0;
    std::int64_t wall_ns = 0;
  };

  // Record one dispatched event. `tag` may be null (bucketed as "untagged").
  void add(const char* tag, std::int64_t wall_ns) {
    Counts*& b = by_pointer_[tag];
    if (b == nullptr) b = &buckets_[tag ? tag : "untagged"];
    ++b->first;
    b->second += wall_ns;
    ++total_events_;
    total_wall_ns_ += wall_ns;
  }

  void sample_queue_depth(std::size_t depth) {
    if (depth > peak_queue_depth_) peak_queue_depth_ = depth;
  }

  std::int64_t total_events() const { return total_events_; }
  std::int64_t total_wall_ns() const { return total_wall_ns_; }
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }

  double events_per_sec() const {
    return total_wall_ns_ > 0
               ? static_cast<double>(total_events_) * 1e9 /
                     static_cast<double>(total_wall_ns_)
               : 0.0;
  }

  // Buckets sorted by total wall time, costliest first.
  std::vector<Bucket> buckets() const;

  // Human-readable table: tag, events, total ms, ns/event, % of wall.
  std::string report() const;

  void clear() {
    by_pointer_.clear();
    buckets_.clear();
    total_events_ = 0;
    total_wall_ns_ = 0;
    peak_queue_depth_ = 0;
  }

 private:
  // (events, wall ns) per tag text; map nodes never move, so by_pointer_
  // can hold their addresses.
  using Counts = std::pair<std::int64_t, std::int64_t>;
  std::map<std::string, Counts> buckets_;
  std::unordered_map<const char*, Counts*> by_pointer_;
  std::int64_t total_events_ = 0;
  std::int64_t total_wall_ns_ = 0;
  std::size_t peak_queue_depth_ = 0;
};

}  // namespace oo::telemetry
