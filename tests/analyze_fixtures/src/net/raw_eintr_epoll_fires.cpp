// raw-eintr: the readiness waits of an epoll serving loop.  A signal
// (the SIGTERM that starts a drain, a profiler) interrupts a blocked
// wait with EINTR; a bare call makes the serving thread treat it as a
// failed wait.
#include <signal.h>
#include <sys/epoll.h>

namespace {

int bareWait(int epollFd, epoll_event* events) {
  return ::epoll_wait(epollFd, events, 1, -1);  // expect: raw-eintr
}

int barePwait(int epollFd, epoll_event* events, const sigset_t* mask) {
  return ::epoll_pwait(epollFd, events, 1, 100, mask);  // expect: raw-eintr
}

}  // namespace

int fixtureRawEintrEpoll(int epollFd) {
  epoll_event event{};
  sigset_t mask;
  sigemptyset(&mask);
  return bareWait(epollFd, &event) + barePwait(epollFd, &event, &mask);
}
