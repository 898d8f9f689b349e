//! Deadlock smoke: no schedule and no failed group may wedge a run.
//!
//! The control tree cannot wedge because every wait of the root has a
//! deadline and a group blocks only on a write up to the root (DESIGN.md
//! §13). These tests hold that on the real code. Each run goes on a
//! thread of its own while the test thread sits on a watchdog channel, so
//! a wedge fails the test with a diagnosis instead of hanging the suite.
//! A 5-node UDS cluster runs a hostile schedule — chaos on every link plus
//! a partition/heal cycle, closed-loop workload keeping every queue warm;
//! a worker process stopped with `SIGSTOP` (a group that never writes)
//! must end its run with an error inside the root's bounds.
//!
//! The same watchdog holds the two ways nodes that share a thread could
//! wait on each other forever: a dial waiting on an accept its own thread
//! must perform, and a join waiting on thread-mates whose pipes are still
//! open. And a node whose control fd cannot be waited on at all says so
//! and exits — it neither spins nor mistakes the fd for a closed pipe.

mod common;

use common::SocketDir;
use ssmfp_cluster::{
    node_args, pick_partition, run_cluster, ChaosSpec, ClusterSpec, Graces, ListenSpec, Run,
    RunMode, RunReport, WorkloadKind, WorkloadSpec,
};
use ssmfp_topology::{gen, Graph};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Generous wall-clock bound: the runs themselves end in a few seconds;
/// anything near the bound means threads stopped making progress.
const WATCHDOG: Duration = Duration::from_secs(90);

/// Runs the cluster in a worker thread and waits for it on the watchdog.
fn run_watched(spec: ClusterSpec) -> io::Result<RunReport> {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run_cluster(&spec));
    });
    done_rx.recv_timeout(WATCHDOG).unwrap_or_else(|_| {
        panic!(
            "cluster wedged: no completion within {WATCHDOG:?} — look for a wait of the root \
             without a deadline, or a group blocking on anything but its write up to the root"
        )
    })
}

#[test]
fn five_node_uds_chaos_never_wedges() {
    let dir = SocketDir::new("deadlock-smoke");
    let graph = gen::line(5);
    let chaos = ChaosSpec {
        seed: 0xDEAD,
        // Heavier than the e2e chaos runs: more per-link faults and a
        // longer blackout, to keep retransmission and backpressure hot.
        faults_per_link: 4,
        partition: Some(pick_partition(&graph, 0xDEAD, 8, 30)),
    };
    let spec = ClusterSpec {
        topology: "line:5".into(),
        graph,
        seed: 0xDEAD,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 8 },
            messages: 30,
        },
        chaos,
        listen: dir.listen(),
        clients: None,
        shards: 2,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(60),
    };
    let report = run_watched(spec).expect("cluster run failed");
    assert!(report.converged, "cluster did not converge");
    assert!(
        report.verdict.clean(),
        "SP violations under the aggressive schedule: {:?}",
        report.verdict.violations
    );
}

/// A quiet `closed:1:3` run of `topology` with every node on one data
/// thread (unless the caller says otherwise).
fn one_thread_spec(topology: &str, graph: Graph, listen: ListenSpec) -> ClusterSpec {
    ClusterSpec {
        topology: topology.into(),
        graph,
        seed: 1,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 3,
        },
        chaos: ChaosSpec::none(),
        listen,
        clients: None,
        shards: 1,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(60),
    }
}

/// A dial must never wait on an accept only its own thread can perform.
/// On one thread the star's 398 links are in memory and the group binds
/// no listener at all, so nothing is dialled. (When every node listened
/// for itself, 199 leaves dialled one TCP hub from the hub's own thread,
/// past std's listen backlog of 128: a blocking `connect` sat out SYN
/// retransmissions the hub could not answer while its thread was in the
/// dial, and the cluster never came up. A shard of one node, at `--shards
/// n`, still dials like that, across shards, behind a bounded dial.)
#[test]
fn tcp_star_past_the_listen_backlog_comes_up_on_one_thread() {
    let report = run_watched(one_thread_spec("star:200", gen::star(200), ListenSpec::Tcp))
        .expect("cluster run failed");
    assert!(report.clean(), "star:200 over TCP: {:?}", report.verdict);
    assert_eq!(report.primaries_delivered, 200 * 3);
}

/// A group that cannot bind its listener ends the run with an error, not
/// a hang — when every group fails (no socket directory), and when one
/// of two fails and the three nodes of the other sit on their thread
/// waiting for a `peers` line that will never come: the root shuts every
/// group's pipe down before it joins the threads. (One shard binds
/// nothing: its links are all in memory.)
#[test]
fn a_shard_whose_nodes_never_get_ready_is_wound_down() {
    let missing = std::env::temp_dir().join(format!("ssmfp-no-such-dir-{}", std::process::id()));
    let blocked = SocketDir::new("deadlock-blocked");
    // `node3.sock` is a directory: bind fails for the group node 3 leads,
    // the second of two.
    std::fs::create_dir_all(blocked.0.join("node3.sock")).expect("block node 3");
    for (dir, shards) in [(missing, 2), (blocked.0.clone(), 2)] {
        let t0 = Instant::now();
        let err = run_watched(ClusterSpec {
            shards,
            ..one_thread_spec("line:5", gen::line(5), ListenSpec::Uds { dir: dir.clone() })
        })
        .expect_err("a group could not bind");
        assert!(
            err.to_string().contains("exited before ready"),
            "{}: {err}",
            dir.display()
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{}: took {:?} to give up",
            dir.display(),
            t0.elapsed()
        );
    }
}

/// A `--node-worker` whose stdin is `/dev/null` or a regular file has a
/// control fd `epoll` refuses (`EPERM`). That is an error out of the node
/// at registration — a message and a non-zero exit at once — where a
/// `ppoll` loop called the fd readable and the node read its way to
/// "control pipe closed".
#[test]
fn a_worker_whose_control_fd_cannot_be_polled_exits_with_a_message() {
    let dir = SocketDir::new("deadlock-unpollable");
    let run = Run {
        graph: gen::line(2),
        seed: 1,
        listen: dir.listen(),
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 1,
        },
        chaos: ChaosSpec::none(),
        clients: None,
    };
    let file = dir.0.join("not-a-pipe");
    std::fs::write(&file, "peers a b\nstart\n").expect("write stdin file");
    for stdin in [PathBuf::from("/dev/null"), file] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ssmfp-cluster"))
            .arg("--node-worker")
            .args(node_args(0..1, &run))
            .stdin(std::fs::File::open(&stdin).expect("open stdin"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        let t0 = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait for worker") {
                break status;
            }
            if t0.elapsed() >= Duration::from_secs(5) {
                let _ = child.kill();
                panic!("worker on {} still running after 5 s", stdin.display());
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        io::Read::read_to_string(&mut child.stderr.take().expect("piped stderr"), &mut stderr)
            .expect("read stderr");
        assert!(!status.success(), "{}: exited clean", stdin.display());
        assert!(
            stderr.contains("control pipe cannot be polled"),
            "{}: stderr {stderr:?}",
            stdin.display()
        );
    }
}

/// Linux's signal numbers (x86, ARM, RISC-V).
const SIGKILL: i32 = 9;
const SIGSTOP: i32 = 19;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// True iff `pid` is a child of this process — a zombie too — per
/// `/proc/<pid>/stat` (`pid (comm) state ppid …`, read past the comm's
/// `)`, which may hold spaces).
fn our_child(pid: i32) -> bool {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let ppid = stat
        .rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(1)?.parse::<u32>().ok());
    ppid == Some(std::process::id())
}

/// A live `--node-worker` child of this process whose argv names `dir`.
fn our_worker(pid: i32, dir: &Path) -> bool {
    let argv = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
    let argv = String::from_utf8_lossy(&argv);
    our_child(pid) && argv.contains("--node-worker") && argv.contains(&*dir.to_string_lossy())
}

/// A worker the test stopped: SIGKILLed on drop if it is still there, so
/// no process outlives a failing test.
struct Stopped<'a>(i32, &'a Path);

impl Drop for Stopped<'_> {
    fn drop(&mut self) {
        if our_worker(self.0, self.1) {
            // SAFETY: `kill` takes no pointers; the pid is our own child's.
            unsafe { kill(self.0, SIGKILL) };
        }
    }
}

/// A group that never writes again — its worker stopped with `SIGSTOP`
/// before or after `ready` — ends the run with an error inside the root's
/// bounds: the ready wait or the report wait times out, and
/// `Groups::finish` kills the worker once its exit grace is out. Both
/// graces derive from the run's timeout, so with 2 s the run ends in
/// about 6 s.
#[test]
fn a_stopped_worker_ends_the_run_with_an_error_inside_its_bound() {
    let dir = SocketDir::new("deadlock-stopped");
    let spec = ClusterSpec {
        shards: 2,
        mode: RunMode::Proc {
            exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
        },
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 2 },
            messages: 100_000_000,
        },
        timeout: Duration::from_secs(2),
        ..one_thread_spec("line:5", gen::line(5), dir.listen())
    };
    // The root's own waits, past the deadline, plus 5 s for the spawn.
    let graces = Graces::of(spec.timeout);
    let bound = spec.timeout + graces.report + graces.exit + Duration::from_secs(5);
    let t0 = Instant::now();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(run_cluster(&spec));
    });

    // One of this run's workers: the other tests here start workers too.
    let pid = loop {
        let pids = std::fs::read_dir("/proc").expect("read /proc").flatten();
        let mut pids = pids.filter_map(|e| e.file_name().to_str()?.parse::<i32>().ok());
        if let Some(pid) = pids.find(|&pid| our_worker(pid, &dir.0)) {
            break pid;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "no worker of the run showed up"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    // SAFETY: as in `Stopped::drop`.
    assert_eq!(unsafe { kill(pid, SIGSTOP) }, 0, "SIGSTOP {pid}");
    let stopped = Stopped(pid, &dir.0);

    let outcome = done_rx
        .recv_timeout(bound.saturating_sub(t0.elapsed()))
        .unwrap_or_else(|_| panic!("a stopped worker held the run past {bound:?}"));
    let err = outcome.expect_err("a run with a stopped worker succeeded");
    let err = err.to_string();
    assert!(
        err.contains("timed out waiting for ready") || err.contains("sent no report"),
        "{err}"
    );
    assert!(!our_child(stopped.0), "worker {pid} outlived its run");
}
