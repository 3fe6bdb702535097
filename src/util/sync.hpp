// Annotated synchronization primitives (thread_annotations.hpp).
//
// Thin wrappers over std::mutex / std::unique_lock / std::condition_variable
// that carry clang thread-safety capability attributes, since the standard
// types do not. Semantics and costs are exactly the standard primitives';
// only the static analysis surface is added.
//
// Condition waits are written as explicit predicate loops at the call site:
//
//   util::MutexLock lock(mu_);
//   while (!ready_) cv_.wait(lock);
//
// rather than the predicate-lambda overload — clang analyzes a lambda body
// as a separate unannotated function, so guarded reads inside it would
// (spuriously) trip the analysis; the open-coded loop keeps every guarded
// access inside the annotated caller.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace lejit::util {

class LEJIT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LEJIT_ACQUIRE() { mu_.lock(); }
  void unlock() LEJIT_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

// Scoped lock over a util::Mutex. Supports an early manual unlock() (the
// serve runtime's completion latch releases the lock before it notifies the
// waiting caller) — the destructor releases only if currently held, like
// std::unique_lock.
class LEJIT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LEJIT_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() LEJIT_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void unlock() LEJIT_RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  // Atomically releases `lock` for the wait and reacquires it before
  // returning; as far as the analysis is concerned the capability is held
  // across the call, which matches what the caller may assume on both
  // sides. Spurious wakeups are possible — always wait in a predicate loop.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

 private:
  std::condition_variable cv_;
};

}  // namespace lejit::util
