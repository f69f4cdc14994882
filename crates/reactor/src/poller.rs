//! The two readiness backends behind one enum: raw `epoll` on Linux
//! and a portable `poll(2)` fallback everywhere unix.
//!
//! Both backends drain their wakeup fd (an eventfd on Linux, the read
//! end of a nonblocking pipe otherwise) internally: a wakeup never
//! surfaces as a caller-visible event, it just makes the wait return
//! with [`WaitOutcome::woken`] set.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::sys;
use crate::{Event, Interest, Mode, Token};

/// Reserved `data` word for the internal wakeup fd.
const WAKE_DATA: u64 = u64::MAX;

/// What one backend wait observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct WaitOutcome {
    /// Caller-visible events delivered into the out buffer.
    pub events: usize,
    /// The wakeup fd fired (and was drained).
    pub woken: bool,
}

/// Shared half of a [`Waker`](crate::Waker): the fd to prod plus the
/// coalescing flag (see [`crate::Waker::wake`]).
pub(crate) struct WakeShared {
    /// Fd written to force the wait to return (eventfd or pipe write
    /// end). Owned here and closed with the last handle, never with
    /// the poller: a `Waker` may outlive its reactor, and a wake
    /// through a closed descriptor number would land in whatever file
    /// has reused it since.
    write_fd: sys::Fd,
    /// True while a wake is pending and not yet consumed — further
    /// wakes skip the syscall, which is what batches N enqueues into
    /// one `write(2)`.
    pub(crate) armed: AtomicBool,
}

impl WakeShared {
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            // An 8-byte write covers both eventfd (a counter add) and
            // the pipe (one chunk the drain loop empties).
            let _ = sys::sys_write(self.write_fd, &1u64.to_ne_bytes());
        }
    }
}

impl Drop for WakeShared {
    fn drop(&mut self) {
        sys::sys_close(self.write_fd);
    }
}

/// Backend selector. [`Backend::default_for_host`] picks epoll on
/// Linux and poll elsewhere; tests pin both explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Raw `epoll` (Linux/Android only).
    Epoll,
    /// Portable `poll(2)` — level-triggered; edge-mode registrations
    /// degrade to level semantics (spurious re-reports, which the
    /// readiness contract permits).
    Poll,
}

impl Backend {
    pub fn default_for_host() -> Backend {
        if cfg!(any(target_os = "linux", target_os = "android")) {
            Backend::Epoll
        } else {
            Backend::Poll
        }
    }

    /// Parse a CLI/env-style name (`epoll` | `poll`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "epoll" => Some(Backend::Epoll),
            "poll" => Some(Backend::Poll),
            _ => None,
        }
    }
}

pub(crate) enum Poller {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    pub(crate) fn new(backend: Backend) -> io::Result<Poller> {
        match backend {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Backend::Epoll => Ok(Poller::Epoll(EpollPoller::new()?)),
            #[cfg(not(any(target_os = "linux", target_os = "android")))]
            Backend::Epoll => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll is Linux-only; use Backend::Poll",
            )),
            Backend::Poll => Ok(Poller::Poll(PollPoller::new()?)),
        }
    }

    pub(crate) fn wake_shared(&self) -> Arc<WakeShared> {
        match self {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Poller::Epoll(p) => Arc::clone(&p.wake),
            Poller::Poll(p) => Arc::clone(&p.wake),
        }
    }

    pub(crate) fn register(
        &mut self,
        fd: sys::Fd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        match self {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_ADD, fd, token, interest, mode),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    pub(crate) fn reregister(
        &mut self,
        fd: sys::Fd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        match self {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Poller::Epoll(p) => p.ctl(sys::EPOLL_CTL_MOD, fd, token, interest, mode),
            Poller::Poll(p) => p.register(fd, token, interest),
        }
    }

    pub(crate) fn deregister(&mut self, fd: sys::Fd) -> io::Result<()> {
        match self {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Poller::Epoll(p) => p.ctl(
                sys::EPOLL_CTL_DEL,
                fd,
                Token(0),
                Interest::NONE,
                Mode::Level,
            ),
            Poller::Poll(p) => {
                p.regs.retain(|r| r.fd != fd);
                Ok(())
            }
        }
    }

    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<Event>,
        timeout_ms: sys::c_int,
    ) -> io::Result<WaitOutcome> {
        match self {
            #[cfg(any(target_os = "linux", target_os = "android"))]
            Poller::Epoll(p) => p.wait(out, timeout_ms),
            Poller::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

/// Drain a wakeup fd (eventfd or pipe read end) until empty.
fn drain_wake_fd(fd: sys::Fd) {
    let mut buf = [0u8; 64];
    while matches!(sys::sys_read(fd, &mut buf), Ok(n) if n > 0) {}
}

// ---------------------------------------------------------------- epoll

#[cfg(any(target_os = "linux", target_os = "android"))]
pub(crate) struct EpollPoller {
    epfd: sys::Fd,
    /// Holds the eventfd, registered level-triggered under `WAKE_DATA`.
    wake: Arc<WakeShared>,
    buf: Vec<sys::epoll_event>,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
impl EpollPoller {
    fn new() -> io::Result<EpollPoller> {
        let epfd = sys::sys_epoll_create()?;
        let wake_fd = match sys::sys_eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys::sys_close(epfd);
                return Err(e);
            }
        };
        if let Err(e) =
            sys::sys_epoll_ctl(epfd, sys::EPOLL_CTL_ADD, wake_fd, sys::EPOLLIN, WAKE_DATA)
        {
            sys::sys_close(wake_fd);
            sys::sys_close(epfd);
            return Err(e);
        }
        Ok(EpollPoller {
            epfd,
            wake: Arc::new(WakeShared {
                write_fd: wake_fd,
                armed: AtomicBool::new(false),
            }),
            buf: vec![sys::epoll_event { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(
        &mut self,
        op: sys::c_int,
        fd: sys::Fd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.readable() {
            events |= sys::EPOLLIN;
        }
        if interest.writable() {
            events |= sys::EPOLLOUT;
        }
        if matches!(mode, Mode::Edge) {
            events |= sys::EPOLLET;
        }
        sys::sys_epoll_ctl(self.epfd, op, fd, events, token.0)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: sys::c_int) -> io::Result<WaitOutcome> {
        let n = loop {
            match sys::sys_epoll_wait(self.epfd, &mut self.buf, timeout_ms) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let mut outcome = WaitOutcome::default();
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let (bits, data) = (ev.events, ev.data);
            if data == WAKE_DATA {
                drain_wake_fd(self.wake.write_fd);
                self.wake.armed.store(false, Ordering::Release);
                outcome.woken = true;
                continue;
            }
            out.push(Event {
                token: Token(data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP | sys::EPOLLERR)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP | sys::EPOLLERR) != 0,
                timer: false,
            });
            outcome.events += 1;
        }
        if n == self.buf.len() {
            // A full buffer means more may be pending; grow so a busy
            // loop converges to one wait per batch.
            self.buf
                .resize(self.buf.len() * 2, sys::epoll_event { events: 0, data: 0 });
        }
        Ok(outcome)
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // The eventfd belongs to `wake` (see `WakeShared::write_fd`).
        sys::sys_close(self.epfd);
    }
}

// ----------------------------------------------------------------- poll

struct PollReg {
    fd: sys::Fd,
    token: Token,
    interest: Interest,
}

/// Portable fallback: rebuilds the `pollfd` array every wait from the
/// registration table. O(registrations) per wait, which is fine for
/// the fallback role (CI hosts without epoll, macOS dev machines).
pub(crate) struct PollPoller {
    regs: Vec<PollReg>,
    /// Pipe read end, drained internally.
    wake_rx: sys::Fd,
    wake: Arc<WakeShared>,
    fds: Vec<sys::pollfd>,
}

impl PollPoller {
    fn new() -> io::Result<PollPoller> {
        let (rx, tx) = sys::sys_pipe_nonblocking()?;
        Ok(PollPoller {
            regs: Vec::new(),
            wake_rx: rx,
            wake: Arc::new(WakeShared {
                write_fd: tx,
                armed: AtomicBool::new(false),
            }),
            fds: Vec::new(),
        })
    }

    fn register(&mut self, fd: sys::Fd, token: Token, interest: Interest) -> io::Result<()> {
        match self.regs.iter_mut().find(|r| r.fd == fd) {
            Some(r) => {
                r.token = token;
                r.interest = interest;
            }
            None => self.regs.push(PollReg {
                fd,
                token,
                interest,
            }),
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: sys::c_int) -> io::Result<WaitOutcome> {
        self.fds.clear();
        self.fds.push(sys::pollfd {
            fd: self.wake_rx,
            events: sys::POLLIN,
            revents: 0,
        });
        for r in &self.regs {
            let mut events = 0i16;
            if r.interest.readable() {
                events |= sys::POLLIN;
            }
            if r.interest.writable() {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::pollfd {
                fd: r.fd,
                events,
                revents: 0,
            });
        }
        loop {
            match sys::sys_poll(&mut self.fds, timeout_ms) {
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut outcome = WaitOutcome::default();
        if self.fds[0].revents != 0 {
            drain_wake_fd(self.wake_rx);
            self.wake.armed.store(false, Ordering::Release);
            outcome.woken = true;
        }
        for (pfd, reg) in self.fds[1..].iter().zip(&self.regs) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token: reg.token,
                readable: r & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                writable: r & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0,
                hangup: r & (sys::POLLHUP | sys::POLLERR) != 0,
                timer: false,
            });
            outcome.events += 1;
        }
        Ok(outcome)
    }
}

impl Drop for PollPoller {
    fn drop(&mut self) {
        sys::sys_close(self.wake_rx);
    }
}
