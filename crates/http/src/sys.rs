//! Thin raw-syscall wrappers around Linux `epoll` and `eventfd` — the only
//! kernel interfaces the reactor needs. No external crates: libc is already
//! linked into every Rust binary on the supported targets, so plain
//! `extern "C"` declarations suffice (the same trick `std` itself uses).
//!
//! Only the subset the reactor uses is wrapped: create, add/modify/delete
//! interest, and wait; and an eventfd to signal and drain (the reactor's
//! waker). Vectored writes go through `std::io::Write::write_vectored`,
//! which is already `writev` on Linux.

#![allow(clippy::upper_case_acronyms)]

use std::io;
use std::os::fd::RawFd;

/// Readable (or a peer is waiting in the accept queue).
pub const EPOLLIN: u32 = 0x001;
/// Writable without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never needs registering).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half (half-close detection without a read).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered registration.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel ABI `struct epoll_event`. Packed on x86_64 (the kernel
/// declares it `__attribute__((packed))` there so 32- and 64-bit layouts
/// agree); naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim with each ready event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
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

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_create1` errno.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the returned fd is owned here.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given interest mask and cookie.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Change the interest mask (and cookie) of a registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregister `fd`. Closing the fd deregisters it implicitly, but an
    /// explicit delete keeps the interest list exact while the fd lives.
    ///
    /// # Errors
    ///
    /// Propagates the `epoll_ctl` errno.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (0 = poll, negative = forever) for ready
    /// events; returns how many were written into `events`. `EINTR` is
    /// retried with a zero timeout so callers never see it.
    ///
    /// # Errors
    ///
    /// Propagates any other `epoll_wait` errno.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        match self.wait_once(events, timeout_ms) {
            // Don't restart the full timeout after a signal; a zero-timeout
            // retry keeps the caller's deadline math honest (a second EINTR
            // reads as an empty poll).
            Err(e) if e.kind() == io::ErrorKind::Interrupted => match self.wait_once(events, 0) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
                other => other,
            },
            other => other,
        }
    }

    fn wait_once(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the buffer is valid for `events.len()` entries and the
        // kernel writes at most `maxevents` of them.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        cvt(n).map(|n| n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned, non-blocking, close-on-exec eventfd: a kernel counter that
/// reads as `EPOLLIN` while non-zero. The fd is closed on drop.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create an eventfd with a zero counter.
    ///
    /// # Errors
    ///
    /// Propagates the `eventfd` errno.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: no pointers involved; the returned fd is owned here.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The fd, for registering with an [`Epoll`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Add one to the counter, making the fd readable. A counter already
    /// at its maximum (`EAGAIN`) is readable anyway, so that is success.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        // SAFETY: `one` is 8 readable bytes, the size eventfd requires.
        unsafe {
            write(self.fd, one.as_ptr(), one.len());
        }
    }

    /// Reset the counter to zero; returns what it held (0 when it was not
    /// signalled).
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes, the size eventfd requires.
        let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        if n == 8 {
            u64::from_ne_bytes(buf)
        } else {
            0
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned and closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_listener_readiness() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        // A pending accept must surface as EPOLLIN with our cookie.
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, mask) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(mask & EPOLLIN, 0);
    }

    #[test]
    fn modify_and_delete_change_interest() {
        let ep = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        ep.add(server_side.as_raw_fd(), EPOLLIN, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no bytes yet");

        // EPOLLOUT on an idle socket is immediately ready.
        ep.modify(server_side.as_raw_fd(), EPOLLIN | EPOLLOUT, 2)
            .unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, mask) = (events[0].data, events[0].events);
        assert_eq!(data, 2);
        assert_ne!(mask & EPOLLOUT, 0);

        // After delete, even incoming bytes surface nothing.
        ep.delete(server_side.as_raw_fd()).unwrap();
        let mut c = client;
        c.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, 50).unwrap(), 0);
    }

    #[test]
    fn eventfd_reads_ready_until_drained() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw_fd(), EPOLLIN, 3).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        assert_eq!(efd.drain(), 0, "an unsignalled drain reads nothing");

        efd.signal();
        efd.signal();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        let data = events[0].data;
        assert_eq!(data, 3);
        assert_eq!(efd.drain(), 2, "one drain takes every signal");
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
