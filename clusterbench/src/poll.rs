//! Waiting for the client connection to become readable, with a deadline
//! finer than the millisecond `poll`/`epoll_wait` timeouts: the open-loop
//! generator parks here between due times instead of spinning on a core
//! the cluster needs.

use std::time::Duration;

/// Blocks until `fd` is readable or `timeout_ns` has passed, whichever is
/// first. Returns early on a signal; callers loop on their own clock.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn wait_readable(fd: Option<i32>, timeout_ns: u64) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;

    let Some(fd) = fd else {
        std::thread::sleep(Duration::from_nanos(timeout_ns.min(100_000)));
        return;
    };
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `pfd` and `ts` are live, correctly laid out (`struct pollfd`
    // and `struct timespec` on 64-bit Linux) and outlive the call; nfds is
    // 1, matching the single entry; a null sigmask leaves the signal mask
    // unchanged. The result is ignored: timeout, readiness, EINTR and an
    // error all return control to the caller's loop, which re-checks its
    // own clock and the connection.
    let _ = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
}

/// Portable fallback: a short sleep bounded by the timeout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn wait_readable(_fd: Option<i32>, timeout_ns: u64) {
    std::thread::sleep(Duration::from_nanos(timeout_ns.min(100_000)));
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wakes_on_data_and_times_out_without() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let fd = Some(rx.as_raw_fd());

        let t = Instant::now();
        wait_readable(fd, 20_000_000);
        assert!(
            t.elapsed() >= Duration::from_millis(15),
            "returned before the timeout"
        );

        tx.write_all(b"x").unwrap();
        let t = Instant::now();
        wait_readable(fd, 5_000_000_000);
        assert!(t.elapsed() < Duration::from_secs(1), "missed readability");
    }
}
