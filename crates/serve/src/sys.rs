//! Thin epoll/pipe FFI for the event loop — Linux only, zero external crates.
//!
//! `std` already links libc, so the handful of syscall wrappers the
//! readiness loop needs can be declared directly; this is the same
//! vendored-libc pattern the rest of the workspace uses for missing
//! dependencies. Everything is wrapped in RAII types ([`Epoll`],
//! [`WakePipe`]) so raw fds never leak past this module.

use std::io;
use std::os::unix::io::RawFd;

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write side.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const O_NONBLOCK: i32 = 0x800;
const O_CLOEXEC: i32 = 0x80000;

const EAGAIN: i32 = 11;

/// Mirror of the kernel's `struct epoll_event`. Packed on x86-64 (the
/// kernel ABI quirk); naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-chosen token identifying the fd.
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// An epoll instance; closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers an fd with the given interest mask and token.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes an fd's interest mask.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters an fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on modern kernels but must
        // be non-null for pre-2.6.9 compatibility; pass a dummy.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for events, filling `buf`. Returns the
    /// ready slice; EINTR is reported as an empty slice.
    pub fn wait<'a>(
        &self,
        buf: &'a mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<&'a [EpollEvent]> {
        let rc = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(&buf[..0]);
            }
            return Err(err);
        }
        Ok(&buf[..rc as usize])
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking self-pipe: worker threads write a byte to wake the event
/// loop out of `epoll_wait` when a completion is ready.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe (both ends nonblocking, close-on-exec).
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd the event loop registers for `EPOLLIN`.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// A cloneable writer for worker threads.
    pub fn waker(&self) -> Waker {
        Waker { fd: self.write_fd }
    }

    /// Drains pending wake bytes (called by the event loop on readiness).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                break; // empty (EAGAIN) or closed — either way, drained
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// The write end of a [`WakePipe`]. Copyable into worker threads; the pipe
/// outlives the workers (the event loop joins them before dropping it).
#[derive(Clone, Copy)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Writes one wake byte. A full pipe (EAGAIN) means a wake is already
    /// pending, which is all we need.
    pub fn wake(&self) {
        let byte = 1u8;
        let rc = unsafe { write(self.fd, &byte, 1) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            debug_assert!(
                err.raw_os_error() == Some(EAGAIN),
                "wake pipe write failed: {err}"
            );
        }
    }
}

// Waker is just an fd written with a single atomic syscall.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_round_trips_and_drains() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        let epoll = Epoll::new().unwrap();
        epoll.add(pipe.read_fd(), EPOLLIN, 7).unwrap();

        let mut buf = [EpollEvent {
            events: 0,
            token: 0,
        }; 4];
        // Nothing pending: times out empty.
        assert!(epoll.wait(&mut buf, 0).unwrap().is_empty());

        waker.wake();
        waker.wake();
        let ready = epoll.wait(&mut buf, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        let (token, events) = {
            let ev = ready[0];
            (ev.token, ev.events)
        };
        assert_eq!(token, 7);
        assert!(events & EPOLLIN != 0);

        pipe.drain();
        assert!(epoll.wait(&mut buf, 0).unwrap().is_empty());
    }

    #[test]
    fn epoll_watches_socket_readiness() {
        use std::io::Write as _;
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let mut buf = [EpollEvent {
            events: 0,
            token: 0,
        }; 4];
        let ready = epoll.wait(&mut buf, 2000).unwrap();
        assert!(ready.iter().any(|e| e.token == 1));

        let (server_side, _) = listener.accept().unwrap();
        epoll
            .add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 2)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let ready = epoll.wait(&mut buf, 2000).unwrap();
        assert!(ready
            .iter()
            .any(|e| e.token == 2 && e.events & EPOLLIN != 0));

        epoll.delete(server_side.as_raw_fd()).unwrap();
        epoll.delete(listener.as_raw_fd()).unwrap();
    }
}
