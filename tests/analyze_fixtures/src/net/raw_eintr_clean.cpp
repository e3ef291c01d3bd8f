// raw-eintr negatives.  The three-line wrapped idiom is the second
// committed regression against tools/lint.sh: its two-line window
// cannot see `retryEintr` from the `return ::read(...)` line and
// flags correct code; the AST check sees the call inside the
// wrapper's argument and stays silent.
#include <fcntl.h>
#include <poll.h>
#include <sstream>
#include <unistd.h>

namespace util {

template <typename Fn>
auto retryEintr(Fn fn) -> decltype(fn()) {
  return fn();
}

}  // namespace util

namespace {

// Single-line wrapped call.
int openWrapped(const char* path) {
  return util::retryEintr([&] { return ::open(path, O_RDONLY); });
}

// The three-line idiom lint.sh false-positives on.
long readWrappedMultiline(int fd, char* buf, unsigned long n) {
  return util::retryEintr(
      [&] {
        return ::read(fd, buf, n);
      });
}

// ::close must not be retried (the fd is gone either way; a retry can
// close a recycled descriptor), so it is exempt by design.  A
// readiness wait is not: it is wrapped like any other call.
int closeAndPoll(int fd) {
  struct pollfd p{fd, POLLIN, 0};
  const int ready = util::retryEintr([&] { return ::poll(&p, 1, 0); });
  ::close(fd);
  return ready;
}

// A *member* named like a syscall is not the syscall.
long streamOpen() {
  std::stringstream stream;
  stream.write("x", 1);
  return static_cast<long>(stream.tellp());
}

}  // namespace

long fixtureRawEintrClean(int fd, char* buf) {
  return openWrapped("/dev/null") + readWrappedMultiline(fd, buf, 1) +
         closeAndPoll(fd) + streamOpen();
}
