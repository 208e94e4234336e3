// Crash-scoped timers: the one timer layer of the per-node protocol
// engines (TxManager, ShipmentManager, NodeRuntime).
//
// A node's protocol timers — flush windows, re-drive loops, reply
// timeouts, service delays — must die with a crash: a timer armed before
// the crash must never act on the recovered node. Timers stamps every
// timer with the epoch it was armed in; invalidate() (run at crash and at
// recovery) bumps the epoch, and a stale timer's event runs as a no-op.
// Stale events stay in the queue, so the event stream is the same as if
// each engine kept its own guard.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "sim/simulator.h"

namespace mar::sim {

class Timers {
 public:
  explicit Timers(Simulator& sim) : sim_(sim) {}
  Timers(const Timers&) = delete;
  Timers& operator=(const Timers&) = delete;

  [[nodiscard]] TimeUs now() const { return sim_.now(); }

  /// Run `fn` `delay` from now unless invalidate() runs first. (Callables
  /// are taken by type, so the simulator event holds the only wrapper.)
  template <typename Fn>
  void after(TimeUs delay, Fn fn) {
    sim_.schedule_after(delay, [this, epoch = epoch_,
                                fn = std::move(fn)]() mutable {
      if (epoch == epoch_) fn();
    });
  }

  /// Run `fn` every `interval`, the first time one interval from now,
  /// until it returns false or invalidate() runs.
  template <typename Fn>
  void every(TimeUs interval, Fn fn) {
    after(interval, [this, interval, fn = std::move(fn)]() mutable {
      if (fn()) every(interval, std::move(fn));
    });
  }

  /// Make every pending timer stale (the node crashed or recovered).
  void invalidate() { ++epoch_; }

 private:
  Simulator& sim_;
  std::uint64_t epoch_ = 0;
};

/// The deadline of a batch that flushes when full or when its timer
/// fires. arm(delay) skips when a timer armed with a delay no longer than
/// `delay` is pending, so a batch pays one timer per distinct delay: a
/// dwell, then at most one same-instant arm(0) once the batch is full.
/// disarm() runs at every flush (the timer does it before `flush`) and at
/// a crash; it makes the pending timers stale, so the next batch gets its
/// full dwell instead of inheriting an old deadline.
class FlushWindow {
 public:
  FlushWindow(Timers& timers, std::function<void()> flush)
      : timers_(timers), flush_(std::move(flush)) {}
  FlushWindow(const FlushWindow&) = delete;
  FlushWindow& operator=(const FlushWindow&) = delete;

  void arm(TimeUs delay) {
    if (armed_ && *armed_ <= delay) return;
    armed_ = delay;
    timers_.after(delay, [this, gen = gen_] {
      if (gen != gen_) return;
      disarm();
      flush_();
    });
  }

  void disarm() {
    ++gen_;
    armed_.reset();
  }

 private:
  Timers& timers_;
  std::function<void()> flush_;
  std::uint64_t gen_ = 0;
  /// Shortest delay armed since the last disarm().
  std::optional<TimeUs> armed_;
};

}  // namespace mar::sim
