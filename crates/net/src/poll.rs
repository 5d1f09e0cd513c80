//! A minimal readiness poller for the reactor transport.
//!
//! On Linux this is a thin shim over `epoll(7)` plus an `eventfd(2)` wake
//! channel, declared via `extern "C"` — std already links libc, so no
//! external crate is needed (the build container has no registry access).
//! Everything the reactor needs fits in five syscalls: create, ctl
//! (add/modify/delete), wait, and a write to the eventfd to interrupt a
//! wait from another thread.
//!
//! On non-Linux targets a portable fallback keeps the reactor *correct*
//! (all registered descriptors are reported ready on a short tick, and the
//! reactor's nonblocking I/O simply observes `WouldBlock` for the idle
//! ones) at degraded efficiency. The workspace's performance claims are
//! made on Linux.
//!
//! # Level-triggered, and why
//!
//! Registrations are level-triggered by default (the epoll default): a
//! readiness bit stays set as long as the condition holds, so the reactor
//! may do *bounded* work per event (read one chunk, write one burst) and rely
//! on the next `wait` to resume where it left off — no starvation
//! bookkeeping, no lost edge on a short read. The cost (spurious wakeups when
//! a condition persists) is irrelevant at the reactor's burst sizes.
//!
//! An endpoint's inbox registers its connections edge-triggered
//! ([`Interest::READ_EDGE`]) instead, for the order of the events: epoll
//! queues a descriptor at the tail of its ready list when it becomes ready,
//! and re-queues a level-triggered one right after reporting it, so after a
//! busy stretch the level-triggered order says little about which
//! connection's unread bytes are oldest. Edge-triggered descriptors are
//! queued only by a new arrival, so a wait reports them in the order their
//! oldest unread bytes arrived. The price is the bookkeeping above: an owner
//! that does not drain a descriptor must remember it.
//!
//! # Thread safety
//!
//! `epoll_ctl` is safe to call concurrently with `epoll_wait` on the same
//! epoll instance — the kernel serializes them. The reactor leans on this:
//! *sender* threads arm `EPOLLOUT` on a connection (via
//! [`Poller::modify`]) while the event loop is parked in
//! [`Poller::wait`], then [`Poller::wake`] kicks the loop awake; and a
//! listener's loop registers each accepted connection with the poller of the
//! inbox it belongs to while that inbox's owner waits on it.

use std::io;
use std::os::fd::RawFd;

/// What a descriptor is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or a peer connected, for
    /// listeners).
    pub readable: bool,
    /// Wake when the descriptor accepts more outbound bytes.
    pub writable: bool,
    /// Report a condition once when it arises (edge-triggered) instead of
    /// for as long as it holds.
    pub edge: bool,
}

impl Interest {
    /// Readable only — the steady state of a healthy connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
    };

    /// Readable and writable — a connection with queued outbound bytes.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
        edge: false,
    };

    /// Readable, reported once per arrival: events come out in the order
    /// the descriptors' oldest unread bytes arrived.
    pub const READ_EDGE: Interest = Interest {
        readable: true,
        writable: false,
        edge: true,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable now (includes EOF — a read will return 0, not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the owner should read
    /// out whatever remains and drop the connection.
    pub hangup: bool,
}

/// Token reserved for the internal wake channel; never surfaced in events.
const WAKE_TOKEN: u64 = u64::MAX;

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;

    // The handful of epoll/eventfd constants and calls the reactor needs,
    // declared directly: std links libc already, and the values below are
    // part of the Linux kernel ABI (stable by definition).
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    const EFD_CLOEXEC: i32 = 0x80000;
    const EFD_NONBLOCK: i32 = 0x800;

    /// `struct epoll_event`. On x86 the kernel ABI packs the 12-byte struct
    /// (no padding before the 64-bit data field); other architectures use
    /// natural alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        if interest.edge {
            events |= EPOLLET;
        }
        events
    }

    /// The Linux poller: an epoll fd plus an eventfd wake channel.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        wakefd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wakefd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wakefd };
            poller.ctl(EPOLL_CTL_ADD, wakefd, EPOLLIN, WAKE_TOKEN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut event) }).map(|_| ())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL (required non-null only
            // on pre-2.6.9 kernels; passing one is harmless and portable).
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<std::time::Duration>,
        ) -> io::Result<()> {
            events.clear();
            let timeout_ms = match timeout {
                // Exactly zero polls.
                Some(t) if t.is_zero() => 0,
                // Round the rest up to whole milliseconds, so a 100µs
                // deadline neither spins at timeout 0 nor wakes early.
                Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
                None => -1,
            };
            const CAPACITY: usize = 256;
            let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms)
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for slot in &raw[..n] {
                let token = slot.data;
                let bits = slot.events;
                if token == WAKE_TOKEN {
                    // Drain the eventfd counter so the next wake re-arms.
                    let mut buf = [0u8; 8];
                    unsafe { read(self.wakefd, buf.as_mut_ptr(), 8) };
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }

        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            unsafe { write(self.wakefd, one.as_ptr(), 8) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Portable fallback: no readiness facility, so every registered
    /// descriptor is reported ready on a short tick and the reactor's
    /// nonblocking I/O sorts out which ones actually are (`WouldBlock` on
    /// the rest). Correct, but O(descriptors) per tick — the Linux build is
    /// the one the performance claims are made on.
    #[derive(Debug, Default)]
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
        woken: Mutex<bool>,
        signal: Condvar,
    }

    const TICK: Duration = Duration::from_millis(5);

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .expect("poller lock")
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.add(fd, token, interest)
        }

        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().expect("poller lock").remove(&fd);
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            events.clear();
            let wait_for = timeout.unwrap_or(TICK).min(TICK);
            {
                let mut woken = self.woken.lock().expect("poller lock");
                if !*woken {
                    let (guard, _) = self
                        .signal
                        .wait_timeout(woken, wait_for)
                        .expect("poller lock");
                    woken = guard;
                }
                *woken = false;
            }
            for (_, &(token, interest)) in self.registered.lock().expect("poller lock").iter() {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    hangup: false,
                });
            }
            Ok(())
        }

        pub fn wake(&self) {
            *self.woken.lock().expect("poller lock") = true;
            self.signal.notify_all();
        }
    }
}

/// A readiness poller: register descriptors with a token and an
/// [`Interest`], park in [`wait`](Self::wait) until something is ready (or
/// another thread calls [`wake`](Self::wake)).
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates a poller (an epoll instance plus eventfd wake channel on
    /// Linux).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token`. The token comes back verbatim in
    /// [`Event::token`]; the poller imposes no structure on it (the reactor
    /// uses slab indices).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN, "token reserved for the wake channel");
        self.inner.add(fd, token, interest)
    }

    /// Re-arms `fd` with a new interest set. Safe to call from a thread
    /// other than the one parked in [`wait`](Self::wait).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.inner.delete(fd)
    }

    /// Blocks until at least one registered descriptor is ready, the
    /// timeout elapses, or another thread calls [`wake`](Self::wake).
    /// Readiness is level-triggered. `events` is cleared and refilled.
    /// `Some(Duration::ZERO)` polls without blocking; other timeouts are
    /// rounded up to whole milliseconds on Linux.
    pub fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }

    /// Interrupts a concurrent [`wait`](Self::wait) (or makes the next one
    /// return immediately). Cheap, lock-free on Linux, and safe from any
    /// thread.
    pub fn wake(&self) {
        self.inner.wake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn readiness_tracks_a_tcp_pair() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut dialer = TcpStream::connect(addr).unwrap();
        let (mut accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.add(accepted.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: wait times out empty (the fallback poller
        // may report spurious readiness, so only assert on Linux).
        let mut events = Vec::new();
        #[cfg(target_os = "linux")]
        {
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "spurious readiness: {events:?}");
        }

        // Bytes in flight flip the readable bit with our token.
        dialer.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readable event never arrived");
        }
        let mut buf = [0u8; 8];
        assert_eq!(accepted.read(&mut buf).unwrap(), 4);

        // Peer hangup surfaces (as hangup on Linux; as a 0-byte read once
        // the fallback reports readiness).
        drop(dialer);
        #[cfg(target_os = "linux")]
        {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if events.iter().any(|e| e.token == 7 && e.hangup) {
                    break;
                }
                assert!(Instant::now() < deadline, "hangup event never arrived");
            }
        }
        poller.delete(accepted.as_raw_fd()).unwrap();
    }

    /// A zero timeout is a poll: it must not round up to a millisecond.
    #[test]
    fn zero_timeout_polls_without_sleeping() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let mut fastest = Duration::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
            fastest = fastest.min(start.elapsed());
        }
        assert!(
            fastest < Duration::from_micros(500),
            "a zero wait on an idle poller took {fastest:?}"
        );
    }

    #[test]
    fn wake_interrupts_a_parked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake did not interrupt the wait"
        );
        handle.join().unwrap();
    }

    #[test]
    fn writable_interest_fires_for_a_fresh_connection() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialer = TcpStream::connect(addr).unwrap();
        dialer.set_nonblocking(true).unwrap();
        poller
            .add(dialer.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "writable event never arrived");
        }
    }

    #[test]
    fn listener_readiness_fires_on_pending_connection() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        poller.add(listener.as_raw_fd(), 9, Interest::READ).unwrap();
        let _conn = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "listener readiness never arrived"
            );
        }
    }
}
