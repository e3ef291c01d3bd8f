// raw-eintr negatives for the epoll waits: each call sits inside the
// util::retryEintr argument, split across lines the way the serving
// loop writes it, and the set-up calls are not interruptible waits.
#include <sys/epoll.h>
#include <unistd.h>

namespace util {

template <typename Fn>
auto retryEintr(Fn fn) -> decltype(fn()) {
  return fn();
}

}  // namespace util

namespace {

int wrappedWait(int epollFd, epoll_event* events, int timeoutMs) {
  return util::retryEintr(
      [&] { return ::epoll_wait(epollFd, events, 1, timeoutMs); });
}

int wrappedPwait(int epollFd, epoll_event* events) {
  return util::retryEintr([&] {
    return ::epoll_pwait(epollFd, events, 1, 0, nullptr);
  });
}

// epoll_create1 and epoll_ctl never fail with EINTR.
int createAndArm(int fd) {
  const int epollFd = ::epoll_create1(EPOLL_CLOEXEC);
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  ::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &event);
  return epollFd;
}

}  // namespace

int fixtureRawEintrEpollClean(int fd) {
  const int epollFd = createAndArm(fd);
  epoll_event event{};
  const int ready = wrappedWait(epollFd, &event, 0) +
                    wrappedPwait(epollFd, &event);
  ::close(epollFd);
  return ready;
}
