//! What the cluster's integration tests share: a socket directory that
//! goes away with the test that made it, and a count of the process's
//! threads by name.

use ssmfp_cluster::ListenSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// A fresh directory `ssmfp-<tag>-<pid>-<k>` in the temp dir, removed with
/// whatever the runs bound in it when the guard drops — on a failing
/// assert too.
pub struct SocketDir(pub PathBuf);

impl SocketDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ssmfp-{tag}-{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create socket dir");
        SocketDir(dir)
    }

    /// Unix-domain sockets in this directory.
    pub fn listen(&self) -> ListenSpec {
        ListenSpec::Uds {
            dir: self.0.clone(),
        }
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How many threads of this process are named `name` now, read from
/// `/proc/self/task/*/comm`, so what the kernel runs is counted.
#[allow(dead_code)] // not every test binary counts threads
pub fn threads_named(name: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == name)
        })
        .count()
}

/// Runs `f` while a sampler thread counts the threads named `name` about
/// every millisecond, and returns what `f` returned with the peak count.
#[allow(dead_code)] // not every test binary counts threads
pub fn peak_threads_named<T>(name: &str, f: impl FnOnce() -> T) -> (T, usize) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            loop {
                peak = peak.max(threads_named(name));
                if done.load(Ordering::Relaxed) {
                    break peak;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = f();
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("thread sampler"))
    })
}
