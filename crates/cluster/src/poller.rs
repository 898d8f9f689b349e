//! The crate's hand-declared syscalls (it vendors no `libc`): [`Poller`],
//! the one readiness wait, `monotonic_us`, the one clock of a node
//! group, and [`raise_nofile_limit`]. `epoll_pwait2` needs Linux ≥ 5.11
//! and glibc ≥ 2.35.

use std::io;
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

/// Raw syscall bindings. The workspace vendors no `libc`, and the only
/// system interfaces the event loop needs are a handful of calls with a
/// stable, tiny ABI — so they are declared by hand for the Linux targets
/// the cluster runtime already assumes (Unix-domain sockets everywhere).
mod sys {
    /// `struct timespec` from `<time.h>` (both fields are `i64` on every
    /// 64-bit Linux target).
    #[repr(C)]
    #[allow(non_camel_case_types)]
    pub struct timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `struct rlimit` from `<sys/resource.h>` (`rlim_t` is `u64` on
    /// every 64-bit Linux target).
    #[repr(C)]
    #[derive(Clone, Copy)]
    #[allow(non_camel_case_types)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    /// `struct epoll_event` from `<sys/epoll.h>`: packed on x86-64 (12
    /// bytes, the kernel's 32-bit-compatible layout), naturally aligned
    /// everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    #[allow(non_camel_case_types)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    /// `EPOLL_CLOEXEC` (= `O_CLOEXEC`) on Linux.
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// `epoll_ctl` operations.
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    /// `RLIMIT_NOFILE` on Linux.
    pub const RLIMIT_NOFILE: i32 = 7;

    /// `CLOCK_MONOTONIC` on Linux.
    pub const CLOCK_MONOTONIC: i32 = 1;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        /// `epoll_wait` with a `timespec` timeout (Linux ≥ 5.11, glibc ≥
        /// 2.35): a null `timeout` waits forever, a null `sigmask` leaves
        /// the signal mask alone.
        pub fn epoll_pwait2(
            epfd: i32,
            events: *mut epoll_event,
            maxevents: i32,
            timeout: *const timespec,
            sigmask: *const u8,
        ) -> i32;
        pub fn clock_gettime(clockid: i32, tp: *mut timespec) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const rlimit) -> i32;
    }
}

/// Readable (data or EOF pending).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never asked for).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never asked for).
pub const POLLHUP: i16 = 0x010;

/// Best-effort raise of the soft `RLIMIT_NOFILE` toward `want` (capped
/// by the hard limit). An inproc 100-node grid holds both ends of every
/// data connection in one process — comfortably past the common 1024
/// default — so the orchestrator calls this before spawning anything.
/// Returns the resulting soft limit (0 if even `getrlimit` failed).
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut cur = sys::rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut cur) != 0 {
            return 0;
        }
        if cur.rlim_cur >= want {
            return cur.rlim_cur;
        }
        let target = want.min(cur.rlim_max);
        let raised = sys::rlimit {
            rlim_cur: target,
            rlim_max: cur.rlim_max,
        };
        if sys::setrlimit(sys::RLIMIT_NOFILE, &raised) == 0 {
            target
        } else {
            cur.rlim_cur
        }
    }
}

/// µs of `CLOCK_MONOTONIC`: the one time base of a data thread, for
/// every deadline and every payload stamp. The clock never steps, and on
/// Linux every process of a host reads the same one, so a stamp one node
/// process took compares with a reading of another's.
pub(crate) fn monotonic_us() -> u64 {
    let mut ts = timespec_of(Duration::ZERO);
    // SAFETY: `ts` is a live `timespec` the call only writes.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_MONOTONIC is always readable");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

fn timespec_of(d: Duration) -> sys::timespec {
    sys::timespec {
        tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: d.subsec_nanos() as i64,
    }
}

/// How many ready fds one [`Poller::wait`] reports; the rest surface on the
/// next (the kernel serves its ready list round-robin).
const POLLER_EVENTS: usize = 64;

/// A persistent readiness set — a data thread's, the root's over every
/// group's control pipe, a cold wait's: an `epoll` instance, level-triggered. A registration
/// follows its fd's life, not the loop's iteration — [`Poller::add`] when
/// the fd starts to matter, [`Poller::modify`] when its interest changes,
/// [`Poller::del`] when it stops, and *nothing* on close: the kernel drops
/// a registration when the last descriptor of its open file goes, and
/// nothing under `crates/cluster/src` dups a descriptor (no `try_clone`,
/// no `dup`; the sockets and the `epoll` fd itself are close-on-exec), so
/// closing the one fd is removing it. A wait costs what is *ready*, not
/// what is registered.
///
/// The timeout is a `timespec` (`epoll_pwait2`: Linux ≥ 5.11, glibc ≥
/// 2.35) because the deadlines are: an open-loop arrival 300 µs away is
/// not `epoll_wait`'s 1 ms.
pub struct Poller {
    epfd: OwnedFd,
    buf: [sys::epoll_event; POLLER_EVENTS],
    ready: Vec<(u64, i16)>,
}

impl Poller {
    /// A new, empty set.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; the result is checked.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: a descriptor `epoll_create1` just returned, owned by
            // nobody else.
            epfd: unsafe { OwnedFd::from_raw_fd(epfd) },
            buf: [sys::epoll_event { events: 0, data: 0 }; POLLER_EVENTS],
            ready: Vec::with_capacity(POLLER_EVENTS),
        })
    }

    /// The token of `fd` as owned by `owner` on a data thread: the group's
    /// control pipe, `CTRL`, or its `Hub`, `HUB`.
    pub fn token(owner: usize, fd: RawFd) -> u64 {
        (owner as u64) << 32 | fd as u32 as u64
    }

    /// `(owner, fd)` back out of a [`Poller::token`].
    pub fn untoken(token: u64) -> (usize, RawFd) {
        ((token >> 32) as usize, token as u32 as RawFd)
    }

    /// Registers `fd` for `interest` (`POLLIN` / `POLLOUT`; errors and
    /// hang-ups are always reported) until [`Poller::del`] or its close.
    /// Fails where the kernel refuses — `EPERM` for a regular file or
    /// `/dev/null`, `EEXIST` for an fd already in the set.
    pub fn add(&self, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest of an fd already in the set — one fd that
    /// carries both directions toggles `POLLOUT` here.
    pub fn modify(&self, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes an fd that stays open (one that is closed is gone already).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: interest as u16 as u32,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` the kernel only reads
        // (`EPOLL_CTL_DEL` ignores it).
        if unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a registered fd is ready or `timeout` elapses (`None`
    /// = wait forever) and returns `(token, events)` of up to
    /// `POLLER_EVENTS` ready fds — empty on a timeout. `EINTR` retries;
    /// any other error is the caller's to end on, not to retry.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[(u64, i16)]> {
        let ts = timeout.map(timespec_of);
        let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const _);
        let n = loop {
            // SAFETY: `buf` is a live, exclusively borrowed array of
            // `POLLER_EVENTS` events; `ts_ptr` is null or points at `ts`,
            // which outlives the call; a null sigmask is allowed.
            let rc = unsafe {
                sys::epoll_pwait2(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    POLLER_EVENTS as i32,
                    ts_ptr,
                    std::ptr::null(),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        self.ready.clear();
        // By value: a field of a packed struct cannot be borrowed.
        self.ready
            .extend(self.buf[..n].iter().map(|ev| (ev.data, ev.events as i16)));
        Ok(&self.ready)
    }

    /// Test hook: closes the `epoll` fd under the set and leaves a
    /// descriptor no wait can work on, so every later [`Poller::wait`]
    /// fails (`EINVAL`) the way a broken kernel object would.
    #[cfg(test)]
    pub(crate) fn break_for_test(&mut self) {
        self.epfd = std::fs::File::open("/dev/null").expect("/dev/null").into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// A registration follows the fd, not the wait: added once, it
    /// reports readiness — level-triggered — on every wait until the bytes
    /// are read, and again for the next bytes, with no re-`add`.
    #[test]
    fn poller_registration_survives_across_waits() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Poller::new().unwrap();
        let token = Poller::token(3, b.as_raw_fd());
        assert_eq!(Poller::untoken(token), (3, b.as_raw_fd()));
        p.add(b.as_raw_fd(), POLLIN, token).unwrap();
        let ms = Some(Duration::from_millis(1));
        assert!(p.wait(ms).unwrap().is_empty());
        let mut buf = [0u8; 8];
        for round in 0..3u8 {
            (&a).write_all(&[round]).unwrap();
            for _ in 0..2 {
                let ready = p.wait(ms).unwrap();
                assert_eq!(ready.len(), 1);
                assert_eq!(ready[0].0, token);
                assert_ne!(ready[0].1 & POLLIN, 0);
            }
            assert_eq!((&b).read(&mut buf).unwrap(), 1);
            assert!(p.wait(ms).unwrap().is_empty());
        }
        // Out of the set by hand: the fd is still open and readable.
        (&a).write_all(&[9]).unwrap();
        p.del(b.as_raw_fd()).unwrap();
        assert!(p.wait(ms).unwrap().is_empty());
        // Back for writability only: the unread byte no longer counts.
        p.add(b.as_raw_fd(), POLLIN, token).unwrap();
        p.modify(b.as_raw_fd(), POLLOUT, token).unwrap();
        assert_eq!(p.wait(ms).unwrap(), [(token, POLLOUT)]);
    }

    /// The timeout reaches the kernel in ns (`epoll_pwait2`): 300 µs on an
    /// idle set is not rounded up to `epoll_wait`'s millisecond.
    #[test]
    fn poller_timeout_has_sub_millisecond_resolution() {
        let (_a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), POLLIN, 0).unwrap();
        // Best of a few: one preemption of the test thread is not a bug.
        let best = (0..20)
            .map(|_| {
                let began = Instant::now();
                assert!(p.wait(Some(Duration::from_micros(300))).unwrap().is_empty());
                began.elapsed()
            })
            .min()
            .unwrap();
        assert!(best >= Duration::from_micros(300), "woke early: {best:?}");
        assert!(
            best < Duration::from_millis(1),
            "a 300 µs wait took {best:?}"
        );
    }

    /// Closing the only descriptor removes the registration — the rule
    /// every "nothing on close" in this file relies on, and it holds
    /// because nothing here dups an fd: the number, reused by a new
    /// socket, registers again (`EEXIST` otherwise) and the set reports
    /// the new socket under the new token, never the old.
    #[test]
    fn poller_close_removes_and_the_number_can_register_again() {
        let mut p = Poller::new().unwrap();
        let ms = Some(Duration::from_millis(1));
        // The lowest free number is the one just closed — unless another
        // test's thread takes it in between, so try until it comes back.
        for _ in 0..200 {
            let (a, b) = UnixStream::pair().expect("socketpair");
            let fd = b.as_raw_fd();
            p.add(fd, POLLIN, 1).unwrap();
            assert_eq!(
                p.add(fd, POLLIN, 1).unwrap_err().kind(),
                io::ErrorKind::AlreadyExists
            );
            (&a).write_all(&[1]).unwrap();
            drop(b);
            assert!(p.wait(ms).unwrap().is_empty(), "a closed fd reported");
            let (c, d) = UnixStream::pair().expect("socketpair");
            let (w, r) = if c.as_raw_fd() == fd { (d, c) } else { (c, d) };
            if r.as_raw_fd() != fd {
                continue;
            }
            p.add(fd, POLLIN, 2).expect("a closed fd left the set");
            (&w).write_all(&[2]).unwrap();
            assert_eq!(p.wait(ms).unwrap(), [(2, POLLIN)]);
            return;
        }
        panic!("the closed number never came back");
    }

    /// More ready fds than one wait reports: none is lost, they surface
    /// over consecutive waits (the kernel rotates its ready list).
    #[test]
    fn poller_overflow_surfaces_over_consecutive_waits() {
        let mut p = Poller::new().unwrap();
        let n = POLLER_EVENTS + 20;
        let pairs: Vec<_> = (0..n)
            .map(|_| UnixStream::pair().expect("socketpair"))
            .collect();
        for (i, (a, b)) in pairs.iter().enumerate() {
            p.add(b.as_raw_fd(), POLLIN, i as u64).unwrap();
            (&*a).write_all(&[1]).unwrap();
        }
        let mut seen = vec![false; n];
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            let ready = p.wait(Some(Duration::from_millis(100))).unwrap().to_vec();
            assert!(ready.len() <= POLLER_EVENTS);
            for (token, _) in ready {
                let i = token as usize;
                assert!(!seen[i], "fd {i} reported after it was drained");
                seen[i] = true;
                assert_eq!((&pairs[i].1).read(&mut buf).unwrap(), 1);
            }
        }
        assert!(seen.iter().all(|&s| s), "a ready fd never surfaced");
    }

    /// What `ppoll` called "readable" `epoll` refuses outright: a regular
    /// file or `/dev/null` as a control pipe is an error at registration.
    #[test]
    fn poller_refuses_an_fd_that_cannot_be_polled() {
        let p = Poller::new().unwrap();
        let null = File::open("/dev/null").unwrap();
        let err = p.add(null.as_raw_fd(), POLLIN, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    /// `raise_nofile_limit` is monotone and never lowers the soft limit.
    #[test]
    fn raise_nofile_limit_is_best_effort_monotone() {
        let before = raise_nofile_limit(0);
        assert!(before > 0, "getrlimit failed");
        let after = raise_nofile_limit(before);
        assert!(after >= before);
    }
}
