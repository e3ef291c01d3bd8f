#pragma once

#include <cerrno>

namespace moloc::util {

/// Retries a POSIX call interrupted by a signal.
///
/// A signal delivered during a blocking (or even nominally
/// non-blocking) syscall makes it fail with EINTR — which is not an
/// I/O error, just "try again".  Before this helper, a signal landing
/// mid-WAL-append or mid-socket-read surfaced as a spurious
/// StoreError/NetError; every raw ::read/::write/::fsync/::open/
/// ::accept call site in src/store and src/net now goes through here
/// (moloc_check rule `raw-eintr` enforces it).
///
/// `fn` is a zero-argument callable wrapping exactly one syscall and
/// returning its result (an int or ssize_t, negative on failure with
/// errno set).  The call is repeated while it fails with EINTR; any
/// other outcome — success or a real error — is returned unchanged,
/// with errno still describing it.
///
/// Deliberately NOT used for ::close: POSIX leaves the descriptor
/// state unspecified after EINTR, and on Linux the fd is already
/// released — retrying could close an unrelated fd another thread
/// just opened.
template <typename Fn>
auto retryEintr(Fn&& fn) -> decltype(fn()) {
  decltype(fn()) rc;
  do {
    rc = fn();
  } while (rc < 0 && errno == EINTR);
  return rc;
}

}  // namespace moloc::util
