//! What the cluster's integration tests share: a socket directory that
//! goes away with the test that made it.

use ssmfp_cluster::ListenSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

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
