// Clang thread-safety analysis annotations, compiled away off clang.
//
// The macros below map 1:1 onto clang's capability analysis attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Built with
// clang and -Wthread-safety (-Werror in the static-analysis CI job) they
// turn the repo's concurrency contracts into compile errors:
//
//   * common::Mutex / common::MutexLock / common::CondVar (common/mutex.h)
//     are real annotated capabilities — ThreadPool's published job is
//     SSHARD_GUARDED_BY its mutex, so an unlocked touch fails to compile;
//   * the phase-ordered components (net::Network's Deposit/Commit split,
//     net::OutboxSet's sealed/open lanes, core::CommitLedger's journal
//     seal/flush) each expose a common::PhaseCapability — a lock-free
//     "role" capability acquired by Seal*, required by the partitioned
//     drain calls and released by the serial epilogue, so phase-ordering
//     violations (touching an open lane during a flush window, draining
//     an unsealed journal) fail compilation instead of corrupting a run.
//
// On GCC (the default container toolchain) every macro expands to
// nothing — tests/static_analysis_test.cc asserts the expansion is
// literally empty, so the shim can never perturb the non-clang build.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define SSHARD_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SSHARD_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a class to be a capability (e.g. a mutex or a phase token).
#define SSHARD_CAPABILITY(x) SSHARD_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define SSHARD_SCOPED_CAPABILITY SSHARD_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define SSHARD_GUARDED_BY(x) SSHARD_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define SSHARD_PT_GUARDED_BY(x) SSHARD_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that may only be called while holding the capability.
#define SSHARD_REQUIRES(...) \
  SSHARD_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capability and returns holding it.
#define SSHARD_ACQUIRE(...) \
  SSHARD_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that must be entered holding the capability and releases it.
#define SSHARD_RELEASE(...) \
  SSHARD_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that may only be called while NOT holding the capability.
#define SSHARD_EXCLUDES(...) \
  SSHARD_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the capability guarding its class
/// (lets annotations name `obj.cap()` instead of a private member).
#define SSHARD_RETURN_CAPABILITY(x) SSHARD_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the contract cannot be expressed.
#define SSHARD_NO_THREAD_SAFETY_ANALYSIS \
  SSHARD_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Assertion-style acquire: the function checks at runtime that the
/// capability is held and the analysis assumes it afterwards.
#define SSHARD_ASSERT_CAPABILITY(x) \
  SSHARD_THREAD_ANNOTATION(assert_capability(x))
