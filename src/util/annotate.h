// Clang Thread Safety Analysis vocabulary (DESIGN.md §11).
//
// Every mutex-owning class in src/ names its capability (REVTR_CAPABILITY on
// the lock type), attributes each guarded member to its mutex
// (REVTR_GUARDED_BY), and declares the locking contract of every entry point
// (REVTR_REQUIRES / REVTR_ACQUIRE / REVTR_RELEASE / REVTR_EXCLUDES). Under
// clang the attributes compile to -Wthread-safety checks (the `tsa` preset
// builds with -Wthread-safety -Wthread-safety-beta -Werror); under gcc they
// expand to nothing and the custom lint pass (tools/revtr_lint.cpp,
// lock-discipline rules) carries the enforcement.
//
// std::mutex/std::shared_mutex are not annotated types in libstdc++, so the
// analysis cannot see through them. util::Mutex and util::SharedMutex wrap
// them with annotated lock/unlock entry points, and the RAII guards below
// replace std::lock_guard/std::unique_lock/std::shared_lock/std::scoped_lock
// in src/ (the mutex-capability lint rule bans the raw std types there).
//
// Lock-acquisition order: the process-wide order is declared in
// tools/revtr_lint.cpp (lock_order_table) and follows the module layering
// DAG — util < obs < sched < atlas/vpselect < service — so a thread holding
// a higher-ranked lock never acquires a lower-ranked one. The lint
// lock-order pass rejects inversions; DESIGN.md §11 documents the model.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define REVTR_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define REVTR_THREAD_ANNOTATION(x)
#endif

// Type declarations.
#define REVTR_CAPABILITY(x) REVTR_THREAD_ANNOTATION(capability(x))
#define REVTR_SCOPED_CAPABILITY REVTR_THREAD_ANNOTATION(scoped_lockable)

// Data members.
#define REVTR_GUARDED_BY(x) REVTR_THREAD_ANNOTATION(guarded_by(x))
#define REVTR_PT_GUARDED_BY(x) REVTR_THREAD_ANNOTATION(pt_guarded_by(x))

// Function contracts.
#define REVTR_REQUIRES(...) \
  REVTR_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REVTR_REQUIRES_SHARED(...) \
  REVTR_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define REVTR_ACQUIRE(...) \
  REVTR_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define REVTR_ACQUIRE_SHARED(...) \
  REVTR_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define REVTR_RELEASE(...) \
  REVTR_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define REVTR_RELEASE_SHARED(...) \
  REVTR_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define REVTR_RELEASE_GENERIC(...) \
  REVTR_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define REVTR_EXCLUDES(...) REVTR_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define REVTR_TRY_ACQUIRE(...) \
  REVTR_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define REVTR_RETURN_CAPABILITY(x) REVTR_THREAD_ANNOTATION(lock_returned(x))
#define REVTR_NO_THREAD_SAFETY_ANALYSIS \
  REVTR_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace revtr::util {

// Annotated exclusive mutex. Same cost as std::mutex; the annotated
// lock/unlock entry points are what let -Wthread-safety track it.
class REVTR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() REVTR_ACQUIRE() { mu_.lock(); }
  void unlock() REVTR_RELEASE() { mu_.unlock(); }
  bool try_lock() REVTR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // The underlying handle, for interop that the analysis cannot model
  // (std::scoped_lock's deadlock-avoiding two-mutex acquisition).
  std::mutex& native() REVTR_RETURN_CAPABILITY(this) { return mu_; }

 private:
  std::mutex mu_;
};

// Annotated reader/writer mutex.
class REVTR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() REVTR_ACQUIRE() { mu_.lock(); }
  void unlock() REVTR_RELEASE() { mu_.unlock(); }
  void lock_shared() REVTR_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() REVTR_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII guard over util::Mutex, replacing std::lock_guard/std::unique_lock in
// src/. Exposes lock()/unlock() so std::condition_variable_any can park on
// it (the daemon's work and drain waits, the scheduler's owner wait); the
// annotations keep the analysis aware that a wait releases and reacquires
// the capability.
class REVTR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) REVTR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() REVTR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // condition_variable_any interface: wait() calls unlock(), parks, then
  // lock() again before returning — the guard is held on both sides.
  void lock() REVTR_ACQUIRE() { mu_.lock(); }
  void unlock() REVTR_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

// Exclusive RAII guard over util::SharedMutex (writer side).
class REVTR_SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mu) REVTR_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~ExclusiveLock() REVTR_RELEASE() { mu_.unlock(); }

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Shared RAII guard over util::SharedMutex (reader side). The destructor
// releases generically: the analysis otherwise flags the shared release of
// a capability the constructor acquired as shared-vs-exclusive mismatch on
// some clang versions.
class REVTR_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) REVTR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLock() REVTR_RELEASE_GENERIC() { mu_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Two-mutex guard for operations spanning two objects of the same class
// (Distribution's copy/move assignment locks both sides). Delegates the
// deadlock-free acquisition order to std::scoped_lock over the native
// handles; the annotations declare the outcome the analysis cannot derive.
class REVTR_SCOPED_CAPABILITY ScopedLock2 {
 public:
  ScopedLock2(Mutex& a, Mutex& b) REVTR_ACQUIRE(a, b)
      : lock_(a.native(), b.native()) {}
  ~ScopedLock2() REVTR_RELEASE() = default;

  ScopedLock2(const ScopedLock2&) = delete;
  ScopedLock2& operator=(const ScopedLock2&) = delete;

 private:
  std::scoped_lock<std::mutex, std::mutex> lock_;
};

}  // namespace revtr::util
