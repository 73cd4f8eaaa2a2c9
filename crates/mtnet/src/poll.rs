//! A thin readiness poller — the `mio`-style layer under the event-loop
//! server, written in-repo like every other dependency (the container
//! that builds this workspace has no access to crates.io).
//!
//! It is raw `epoll`, level-triggered, which matches how the server
//! drains: a socket with unread bytes keeps firing until the worker has
//! consumed them. Linux is the one supported OS. Each [`Poller`] belongs
//! to exactly one worker thread, so the interest bookkeeping needs no
//! synchronization beyond what the kernel does.

use std::io;
use std::os::fd::RawFd;

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness notification. `hangup` folds `EPOLLHUP`/`EPOLLERR`
/// (and `EPOLLRDHUP`) together: in every case the right move is to let
/// the next read/write surface the exact error.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

// The kernel ABI for `struct epoll_event`; packed on x86-64 only
// (the one architecture where the kernel declares it so).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
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
    let mut m = EPOLLRDHUP;
    if interest.readable {
        m |= EPOLLIN;
    }
    if interest.writable {
        m |= EPOLLOUT;
    }
    m
}

pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall; the returned fd is owned by `Poller`.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask(interest),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as above (pre-2.6.9 kernels required a non-null event).
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks until at least one registration is ready (`timeout_ms < 0`
    /// waits forever), replacing `events`' contents.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            // SAFETY: `buf` is a valid out-array of the stated length.
            match cvt(unsafe {
                epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned and closed exactly once.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let poller = Poller::new().unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(b"x").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(n, 1);

        // Level-triggered: drained socket stops firing.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());

        // Write interest on an unsaturated socket fires immediately.
        poller
            .reregister(
                b.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.writable));

        poller.deregister(b.as_raw_fd()).unwrap();
        a.write_all(b"y").unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "deregistered fd must not fire");
    }

    #[test]
    fn hangup_is_reported() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(!events.is_empty());
        assert!(events[0].hangup || events[0].readable);
    }
}
