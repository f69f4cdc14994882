//! `igern-reactor`: a std-only readiness-polled event loop.
//!
//! The serving layer historically spent two OS threads per accepted
//! connection; at the subscriber populations the ROADMAP targets that
//! is tens of thousands of threads. This crate supplies the missing
//! substrate: a single-threaded [`Reactor`] multiplexing many
//! registered sources, built directly on raw `epoll` (Linux) or
//! portable `poll(2)` through thin `extern "C"` bindings — no external
//! crates, matching the workspace's std-only rule.
//!
//! One reactor instance belongs to one loop thread. Cross-thread
//! interaction happens through two narrow channels:
//!
//! * [`Waker`] — clonable, prods the loop out of its wait. Wakes are
//!   **batched**: an armed flag coalesces any number of `wake()` calls
//!   between two waits into at most one `write(2)`, so a tick fanning
//!   frames to hundreds of connections on the same loop costs one
//!   syscall, not hundreds.
//! * [`ExternalHandle`] — readiness for fd-less sources (the
//!   in-process memory transport). Producers flip ready bits and wake
//!   the loop; the reactor folds them into the same [`Event`] stream
//!   as kernel-reported fds.
//!
//! Deadline timers ride the poll timeout: [`Reactor::set_timer`] arms
//! a per-token deadline (binary heap, lazy deletion) and expiry is
//! delivered as an [`Event`] with `timer` set.
//!
//! Readiness is level-triggered by default. [`Mode::Edge`] maps to
//! `EPOLLET` on the epoll backend; the poll backend has no edge
//! support and stays level, which is sound for correctly written
//! consumers (edge is an optimisation, spurious readiness is always
//! permitted).

mod external;
mod poller;
mod timer;

pub mod sys;

pub use external::ExternalHandle;
pub use poller::{Backend, WaitOutcome};

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Caller-chosen identifier carried on every event. The reactor never
/// interprets it beyond equality; servers typically pack a slab slot
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness directions a registration listens for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    pub const NONE: Interest = Interest(0);
    pub const READABLE: Interest = Interest(1);
    pub const WRITABLE: Interest = Interest(2);
    pub const BOTH: Interest = Interest(3);

    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// Level vs edge readiness reporting (see crate docs for backend
/// caveats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Level,
    Edge,
}

/// One readiness (or timer-expiry) notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup / error; the source should be drained then dropped.
    pub hangup: bool,
    /// Set iff this event is a deadline-timer expiry.
    pub timer: bool,
}

/// Clonable cross-thread wakeup handle (see crate docs on batching).
#[derive(Clone)]
pub struct Waker {
    shared: Arc<poller::WakeShared>,
}

impl Waker {
    /// Prod the owning reactor out of its current (or next) wait.
    /// Coalesced: repeated calls before the loop runs again are free.
    pub fn wake(&self) {
        self.shared.wake();
    }
}

/// The event loop core. `Send` but not `Sync`: build it anywhere (e.g.
/// on a main thread, so [`Waker`]s exist before the loop runs), move it
/// into its loop thread, and share only [`Waker`]s and
/// [`ExternalHandle`]s across threads.
pub struct Reactor {
    poller: poller::Poller,
    timers: timer::Timers,
    externals: external::Externals,
    backend: Backend,
    /// Scratch for external drains, reused across polls.
    ext_buf: Vec<(Token, bool, bool, bool)>,
    timer_buf: Vec<Token>,
}

impl Reactor {
    /// Reactor on the host's preferred backend (epoll on Linux).
    pub fn new() -> io::Result<Reactor> {
        Reactor::with_backend(Backend::default_for_host())
    }

    pub fn with_backend(backend: Backend) -> io::Result<Reactor> {
        Ok(Reactor {
            poller: poller::Poller::new(backend)?,
            timers: timer::Timers::default(),
            externals: external::Externals::new(),
            backend,
            ext_buf: Vec::new(),
            timer_buf: Vec::new(),
        })
    }

    pub fn backend(&self) -> Backend {
        self.backend
    }

    pub fn waker(&self) -> Waker {
        Waker {
            shared: self.poller.wake_shared(),
        }
    }

    /// Register a kernel-pollable fd under `token`.
    pub fn register(
        &mut self,
        fd: sys::Fd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        self.poller.register(fd, token, interest, mode)
    }

    /// Change interest/mode for an already-registered fd.
    pub fn reregister(
        &mut self,
        fd: sys::Fd,
        token: Token,
        interest: Interest,
        mode: Mode,
    ) -> io::Result<()> {
        self.poller.reregister(fd, token, interest, mode)
    }

    pub fn deregister(&mut self, fd: sys::Fd) -> io::Result<()> {
        self.poller.deregister(fd)
    }

    /// Create an fd-less readiness source delivered under `token`.
    pub fn external(&self, token: Token) -> ExternalHandle {
        self.externals.create(token, self.poller.wake_shared())
    }

    /// Arm (or re-arm) the deadline timer for `token`.
    pub fn set_timer(&mut self, token: Token, deadline: Instant) {
        self.timers.set(token, deadline);
    }

    pub fn cancel_timer(&mut self, token: Token) {
        self.timers.cancel(token);
    }

    /// Wait for events up to `timeout` (forever if `None`), appending
    /// into `out`. Returns what the underlying wait observed; `out`
    /// additionally receives external-source and timer events, in that
    /// order after the fd events.
    pub fn poll(
        &mut self,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<WaitOutcome> {
        let now = Instant::now();
        let mut wait_ms = match timeout {
            None => -1i64,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i64,
        };
        if let Some(deadline) = self.timers.next_deadline() {
            // Ceil to ms so we never wake a hair early and spin.
            let until = deadline
                .saturating_duration_since(now)
                .as_millis()
                .saturating_add(1)
                .min(i32::MAX as u128) as i64;
            wait_ms = if wait_ms < 0 {
                until
            } else {
                wait_ms.min(until)
            };
        }
        let outcome = self.poller.wait(out, wait_ms as sys::c_int)?;

        self.ext_buf.clear();
        self.externals.drain(&mut self.ext_buf);
        for &(token, readable, writable, hangup) in &self.ext_buf {
            out.push(Event {
                token,
                readable,
                writable,
                hangup,
                timer: false,
            });
        }

        if !self.timers.is_empty() {
            self.timer_buf.clear();
            self.timers.expired(Instant::now(), &mut self.timer_buf);
            for &token in &self.timer_buf {
                out.push(Event {
                    token,
                    readable: false,
                    writable: false,
                    hangup: false,
                    timer: true,
                });
            }
        }
        Ok(outcome)
    }
}

/// `(soft, hard)` RLIMIT_NOFILE for capacity planning / metrics.
pub fn fd_limit() -> Option<(u64, u64)> {
    sys::fd_limit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn backends() -> Vec<Backend> {
        if cfg!(any(target_os = "linux", target_os = "android")) {
            vec![Backend::Epoll, Backend::Poll]
        } else {
            vec![Backend::Poll]
        }
    }

    #[test]
    fn pipe_readiness_level() {
        for backend in backends() {
            let mut r = Reactor::with_backend(backend).unwrap();
            let (rx, tx) = sys::sys_pipe_nonblocking().unwrap();
            r.register(rx, Token(7), Interest::READABLE, Mode::Level)
                .unwrap();

            // Nothing written yet: the wait times out with no events.
            let mut out = Vec::new();
            r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(out.is_empty(), "{backend:?}: spurious event");

            sys::sys_write(tx, b"x").unwrap();
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(1000))).unwrap();
            assert_eq!(out.len(), 1, "{backend:?}");
            assert_eq!(out[0].token, Token(7));
            assert!(out[0].readable);

            // Level-triggered: still readable until drained.
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(1000))).unwrap();
            assert_eq!(out.len(), 1, "{backend:?}: level re-report");

            let mut buf = [0u8; 8];
            assert_eq!(sys::sys_read(rx, &mut buf).unwrap(), 1);
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(out.is_empty(), "{backend:?}: drained but still ready");

            r.deregister(rx).unwrap();
            sys::sys_close(rx);
            sys::sys_close(tx);
        }
    }

    #[test]
    fn writable_interest_toggle() {
        for backend in backends() {
            let mut r = Reactor::with_backend(backend).unwrap();
            let (rx, tx) = sys::sys_pipe_nonblocking().unwrap();
            r.register(tx, Token(1), Interest::READABLE, Mode::Level)
                .unwrap();
            let mut out = Vec::new();
            r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(out.is_empty(), "{backend:?}: pipe tx is not readable");

            // Flip interest to writable: an empty pipe is writable now.
            r.reregister(tx, Token(1), Interest::WRITABLE, Mode::Level)
                .unwrap();
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(1000))).unwrap();
            assert_eq!(out.len(), 1, "{backend:?}");
            assert!(out[0].writable);

            r.deregister(tx).unwrap();
            sys::sys_close(rx);
            sys::sys_close(tx);
        }
    }

    #[test]
    fn waker_crosses_threads_and_batches() {
        for backend in backends() {
            let mut r = Reactor::with_backend(backend).unwrap();
            let waker = r.waker();
            let (started_tx, started_rx) = mpsc::channel();
            let h = thread::spawn(move || {
                started_rx.recv().unwrap();
                // Many wakes, at most one write reaches the fd.
                for _ in 0..1000 {
                    waker.wake();
                }
            });
            started_tx.send(()).unwrap();
            let mut out = Vec::new();
            let outcome = r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert!(outcome.woken, "{backend:?}: wake lost");
            assert!(
                out.is_empty(),
                "{backend:?}: wake must not surface as event"
            );
            h.join().unwrap();

            // The armed flag was cleared by the drain: a fresh wake
            // still gets through.
            let waker = r.waker();
            waker.wake();
            let outcome = r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert!(outcome.woken, "{backend:?}: re-arm failed");
        }
    }

    #[test]
    fn late_wake_never_writes_through_a_reused_fd() {
        for backend in backends() {
            let r = Reactor::with_backend(backend).unwrap();
            let waker = r.waker();
            drop(r);
            // The lowest free descriptor numbers are now the ones the
            // reactor just closed; these pipes take them.
            let pipes: Vec<_> = (0..4)
                .map(|_| sys::sys_pipe_nonblocking().unwrap())
                .collect();
            waker.wake();
            for &(rx, tx) in &pipes {
                let mut buf = [0u8; 8];
                assert!(
                    sys::sys_read(rx, &mut buf).is_err(),
                    "{backend:?}: a wake after the reactor dropped reached an unrelated fd"
                );
                sys::sys_close(rx);
                sys::sys_close(tx);
            }
        }
    }

    #[test]
    fn timer_fires_and_rearm_supersedes() {
        for backend in backends() {
            let mut r = Reactor::with_backend(backend).unwrap();
            let start = Instant::now();
            r.set_timer(Token(3), start + Duration::from_millis(20));
            // Re-arm farther out: only the later deadline is live.
            r.set_timer(Token(3), start + Duration::from_millis(40));
            r.set_timer(Token(4), start + Duration::from_millis(10));
            r.cancel_timer(Token(4));

            let mut out = Vec::new();
            r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            let elapsed = start.elapsed();
            assert_eq!(out.len(), 1, "{backend:?}: {out:?}");
            assert_eq!(out[0].token, Token(3));
            assert!(out[0].timer);
            assert!(
                elapsed >= Duration::from_millis(40),
                "{backend:?}: fired early at {elapsed:?}"
            );

            // One-shot: no refire.
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
            assert!(out.is_empty(), "{backend:?}: timer refired");
        }
    }

    #[test]
    fn external_source_signals_and_coalesces() {
        for backend in backends() {
            let mut r = Reactor::with_backend(backend).unwrap();
            let ext = r.external(Token(9));
            let producer = ext.clone();
            let h = thread::spawn(move || {
                for _ in 0..100 {
                    producer.set_ready(true, false);
                }
                producer.set_ready(false, true);
            });
            h.join().unwrap();

            let mut out = Vec::new();
            r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            // All 101 signals coalesce into exactly one event with the
            // union of the bits.
            assert_eq!(out.len(), 1, "{backend:?}: {out:?}");
            assert_eq!(out[0].token, Token(9));
            assert!(out[0].readable && out[0].writable);

            // Consumed: nothing pending until signalled again.
            out.clear();
            r.poll(&mut out, Some(Duration::from_millis(10))).unwrap();
            assert!(out.is_empty(), "{backend:?}");

            ext.set_hangup();
            out.clear();
            r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(out.len(), 1, "{backend:?}");
            assert!(out[0].hangup && out[0].readable);
        }
    }

    #[test]
    fn fd_limit_reads() {
        let (soft, hard) = fd_limit().expect("getrlimit failed");
        assert!(soft > 0 && hard >= soft);
    }

    #[test]
    fn edge_mode_epoll_reports_once() {
        if !cfg!(any(target_os = "linux", target_os = "android")) {
            return;
        }
        let mut r = Reactor::with_backend(Backend::Epoll).unwrap();
        let (rx, tx) = sys::sys_pipe_nonblocking().unwrap();
        r.register(rx, Token(5), Interest::READABLE, Mode::Edge)
            .unwrap();
        sys::sys_write(tx, b"x").unwrap();
        let mut out = Vec::new();
        r.poll(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        // Edge: not re-reported while the data sits undrained.
        out.clear();
        r.poll(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(out.is_empty(), "edge mode re-reported: {out:?}");
        r.deregister(rx).unwrap();
        sys::sys_close(rx);
        sys::sys_close(tx);
    }
}
