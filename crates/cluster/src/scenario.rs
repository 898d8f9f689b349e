//! What a cluster run is: one [`Scenario`] — topology, seed, node
//! workload, clients, chaos budgets and partition — with one parser per
//! run flag ([`Scenario::flag`]; a node worker reads its seed, workload and
//! client flags with the same arms), one text form that replays the run
//! ([`Scenario::args`]), and [`Scenario::spec`], the checked run.

use crate::chaos::ChaosSpec;
use crate::clients::{ClientMutation, ClientSpec};
use crate::node::ListenSpec;
use crate::orchestrator::{pick_partition, ClusterSpec, RunMode};
use crate::workload::{WorkloadKind, WorkloadSpec};
use ssmfp_core::cli::{self, Args};
use ssmfp_topology::{gen, Graph};
use std::time::Duration;

/// One cluster run, as its flags describe it; `None` is a flag not given.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// `--topology` (default `line:5`), read by [`parse_topology`].
    pub topology: String,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--workload`, every node's (default `closed:4:50`).
    pub workload: WorkloadSpec,
    /// `--clients`, `--client-load` (default `closed:1:2`) and
    /// `--client-mutation`; without `--clients` the count is 0, no run.
    pub clients: Option<ClientSpec>,
    /// `--faults`: per-link drop/duplicate/reorder budgets (default 0).
    pub faults: u32,
    /// `--partition FROM:LEN`: one partition/heal cycle.
    pub partition: Option<(u64, u64)>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            topology: "line:5".into(),
            seed: 1,
            workload: parse_workload("closed:4:50").expect("a workload"),
            clients: None,
            faults: 0,
            partition: None,
        }
    }
}

impl Scenario {
    /// Takes run flag `flag` and its value off `args`; `Ok(false)` if
    /// `flag` is none.
    pub fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--topology" => self.topology = args.value()?,
            "--faults" => self.faults = args.parse()?,
            "--partition" => {
                let v = args.value()?;
                let (f, l) = v.split_once(':').ok_or("bad --partition (want FROM:LEN)")?;
                self.partition =
                    Some((cli::parse("--partition", f)?, cli::parse("--partition", l)?));
            }
            _ => return self.load_flag(flag, args),
        }
        Ok(true)
    }

    /// The seed, workload and client flags: the run flags a node worker
    /// reads too.
    pub(crate) fn load_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--seed" => self.seed = args.parse()?,
            "--workload" => self.workload = parse_workload(&args.value()?)?,
            "--clients" => self.client_mode().clients = args.parse()?,
            "--client-load" => self.client_mode().load = parse_workload(&args.value()?)?,
            "--client-mutation" => match args.value()?.as_str() {
                "dup-stamp" => self.client_mode().mutation = Some(ClientMutation::DuplicateStamp),
                other => return Err(format!("unknown client mutation {other:?}")),
            },
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Client mode, opened by the first client flag with a count of 0.
    fn client_mode(&mut self) -> &mut ClientSpec {
        self.clients.get_or_insert(ClientSpec {
            clients: 0,
            load: parse_workload("closed:1:2").expect("a workload"),
            mutation: None,
        })
    }

    /// The text form: every flag given, in a fixed order, as the words
    /// [`Scenario::flag`] reads back to this value (a report joins them).
    pub fn args(&self) -> Vec<String> {
        let mut words = vec!["--topology".into(), self.topology.clone()];
        words.extend(load_words(self.seed, &self.workload, &self.clients));
        words.extend(["--faults".into(), self.faults.to_string()]);
        if let Some((from, len)) = self.partition {
            words.extend(["--partition".into(), format!("{from}:{len}")]);
        }
        words
    }

    /// The run, launched over `listen` in `mode`; `shards: None` is one
    /// per 25 nodes and at least one per CPU. `Err` names what
    /// makes it no run: a malformed topology, or clients the ghost packing
    /// cannot hold (a count of 0 included).
    pub fn spec(
        &self,
        listen: ListenSpec,
        shards: Option<usize>,
        mode: RunMode,
        timeout: Duration,
    ) -> Result<ClusterSpec, String> {
        let graph = parse_topology(&self.topology, self.seed)?;
        let n = graph.n();
        self.clients.map_or(Ok(()), |c| c.validate(n))?;
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let pick = |(from, len)| pick_partition(&graph, self.seed, from, len);
        let partition = self.partition.map(pick);
        Ok(ClusterSpec {
            topology: self.topology.clone(),
            graph,
            seed: self.seed,
            workload: self.workload,
            chaos: ChaosSpec {
                seed: self.seed ^ 0xC4A0_5C4A_05C4_A05C,
                faults_per_link: self.faults,
                partition,
            },
            listen,
            clients: self.clients,
            shards: shards.unwrap_or(n.div_ceil(25).max(cpus.min(n))),
            mode,
            timeout,
        })
    }
}

/// The words of the flags `Scenario::load_flag` reads.
pub(crate) fn load_words(seed: u64, w: &WorkloadSpec, clients: &Option<ClientSpec>) -> Vec<String> {
    let text = |w: &WorkloadSpec| match w.kind {
        WorkloadKind::Open { rate_per_sec } => format!("open:{rate_per_sec}:{}", w.messages),
        WorkloadKind::Closed { outstanding } => format!("closed:{outstanding}:{}", w.messages),
    };
    let mut words = vec!["--seed".into(), seed.to_string()];
    words.extend(["--workload".into(), text(w)]);
    if let Some(c) = clients {
        words.extend(["--clients".into(), c.clients.to_string()]);
        words.extend(["--client-load".into(), text(&c.load)]);
        if let Some(ClientMutation::DuplicateStamp) = c.mutation {
            words.extend(["--client-mutation".into(), "dup-stamp".into()]);
        }
    }
    words
}

/// Builds the graph of a `--topology` spec: `line:N`, `ring:N`, `star:N`,
/// `caterpillar:S:L`, `grid:RxC`, `torus:RxC` (or `R:C`), `hypercube:D`,
/// or `random:N,p` — a connected Erdős–Rényi sample drawn from `seed`. A
/// size its family cannot be built at, or under 2 nodes, is refused with
/// the bound.
pub fn parse_topology(s: &str, seed: u64) -> Result<Graph, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let bad = |want: &str| format!("bad topology {s:?} (want {want})");
    let num = |t: &str| t.parse::<usize>().map_err(|_| bad("sizes"));
    let at_least = |v: usize, min: usize, want: &str| (v >= min).then_some(v).ok_or(bad(want));
    // grid:10x10 / torus:4x8 are the compact forms; grid:R:C still works.
    let dims = |min: usize, want: &str| {
        let (r, c) = match parts[1..] {
            [rc] => rc.split_once('x').ok_or(bad("RxC"))?,
            [r, c] => (r, c),
            _ => return Err(bad("RxC")),
        };
        Ok((at_least(num(r)?, min, want)?, at_least(num(c)?, min, want)?))
    };
    let graph = match (parts[0], &parts[1..]) {
        ("line", &[n]) => gen::line(at_least(num(n)?, 1, "N >= 1")?),
        ("ring", &[n]) => gen::ring(at_least(num(n)?, 3, "N >= 3")?),
        ("star", &[n]) => gen::star(at_least(num(n)?, 2, "N >= 2")?),
        ("caterpillar", &[spine, legs]) => {
            gen::caterpillar(at_least(num(spine)?, 1, "S >= 1")?, num(legs)?)
        }
        ("grid", _) => dims(1, "R, C >= 1").map(|(r, c)| gen::grid(r, c))?,
        ("torus", _) => dims(3, "R, C >= 3").map(|(r, c)| gen::torus(r, c))?,
        ("hypercube", &[d]) => match num(d)? {
            d @ 1..=16 => gen::hypercube(d as u32),
            _ => return Err(bad("1 <= D <= 16")),
        },
        ("random", &[np]) => {
            let (n, p) = np.split_once(',').ok_or(bad("random:N,p"))?;
            let in_range = |p: &f64| (0.0..=1.0).contains(p);
            let p = p.parse().ok().filter(in_range).ok_or(bad("p in [0, 1]"))?;
            let n = at_least(num(n)?, 1, "N >= 1")?;
            gen::erdos_renyi(n, p, seed).ok_or_else(|| {
                format!("random:{n},{p} found no connected sample at seed {seed}; raise p")
            })?
        }
        _ => return Err(format!("unknown topology {s:?}")),
    };
    at_least(graph.n(), 2, "at least 2 nodes").map(|_| graph)
}

/// Parses `open:<rate>:<msgs>` / `closed:<k>:<msgs>`. A rate must be
/// finite and above 0 and a window at least 1, or nothing can pace the
/// load; a quota of 0 messages is legal.
pub fn parse_workload(s: &str) -> Result<WorkloadSpec, String> {
    let bad = |want: &str| format!("bad workload {s:?} (want {want})");
    let form = "open:<rate>:<msgs> or closed:<k>:<msgs>";
    let [kind, pace, messages] = s.split(':').collect::<Vec<_>>()[..] else {
        return Err(bad(form));
    };
    let kind = match (kind, pace.parse::<f64>()) {
        ("open", Ok(r)) if r.is_finite() && r > 0.0 => WorkloadKind::Open { rate_per_sec: r },
        ("open", Ok(_)) => return Err(bad("a finite open rate > 0")),
        ("closed", _) => match pace.parse().map_err(|_| bad(form))? {
            0 => return Err(bad("a closed window >= 1")),
            outstanding => WorkloadKind::Closed { outstanding },
        },
        _ => return Err(bad(form)),
    };
    let messages = messages.parse().map_err(|_| bad(form))?;
    Ok(WorkloadSpec { kind, messages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::arb_workload;
    use proptest::prelude::*;

    /// The scenario `words` describe, read flag by flag as the CLI does.
    fn parse(words: Vec<String>) -> Result<Scenario, String> {
        let mut s = Scenario::default();
        let mut args = Args::new(words);
        while let Some(flag) = args.next_flag() {
            if !s.flag(&flag, &mut args)? {
                return Err(args.unknown());
            }
        }
        Ok(s)
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// `None`, or a value of `s`.
    fn maybe<S: Strategy + 'static>(s: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S::Value: Clone + 'static,
    {
        prop_oneof![Just(None), s.prop_map(Some)]
    }

    /// Every value the flag parser can produce: a topology spec or any
    /// string at all (it is read at [`Scenario::spec`]), and each optional
    /// flag given or not, client mode at any count — 0, client flags
    /// without `--clients`, included.
    fn arb_scenario() -> impl Strategy<Value = Scenario> {
        let text = |chars: Vec<u32>| chars.into_iter().filter_map(char::from_u32).collect();
        let topology = prop_oneof![
            Just("line:5".to_string()),
            (1usize..40, 1usize..40).prop_map(|(r, c)| format!("grid:{r}x{c}")),
            (2usize..100, 0.0f64..1.0).prop_map(|(n, p)| format!("random:{n},{p}")),
            proptest::collection::vec(0u32..128, 0..12).prop_map(text),
            proptest::collection::vec(any::<u32>(), 0..6).prop_map(text),
        ];
        let mutation = maybe(Just(ClientMutation::DuplicateStamp));
        let clients =
            (any::<u64>(), arb_workload(), mutation).prop_map(|(clients, load, mutation)| {
                ClientSpec {
                    clients,
                    load,
                    mutation,
                }
            });
        (
            (topology, any::<u64>(), arb_workload()),
            maybe(clients),
            (any::<u32>(), maybe((any::<u64>(), any::<u64>()))),
        )
            .prop_map(
                |((topology, seed, workload), clients, (faults, partition))| Scenario {
                    topology,
                    seed,
                    workload,
                    clients,
                    faults,
                    partition,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Every scenario survives its text form whole — as words, and as
        /// the one line a report prints when no word holds a space.
        #[test]
        fn any_scenario_roundtrips_through_its_text_form(s in arb_scenario()) {
            prop_assert_eq!(parse(s.args()), Ok(s.clone()));
            if !s.topology.contains(char::is_whitespace) && !s.topology.is_empty() {
                prop_assert_eq!(parse(words(&s.args().join(" "))), Ok(s));
            }
        }
    }

    /// The defaults are the CLI's, and a line in any flag order reads to
    /// the same scenario as its text form.
    #[test]
    fn a_line_reads_in_any_order_and_prints_in_one() {
        let s = parse(words(
            "--partition 5:15 --client-load closed:1:3 --seed 3 --clients 50 --faults 1 \
             --topology line:5",
        ))
        .unwrap();
        assert_eq!(
            s.args().join(" "),
            "--topology line:5 --seed 3 --workload closed:4:50 --clients 50 \
             --client-load closed:1:3 --faults 1 --partition 5:15"
        );
        assert_eq!(
            parse(Vec::new()).unwrap().args().join(" "),
            "--topology line:5 --seed 1 --workload closed:4:50 --faults 0"
        );
        assert!(parse(words("--transport uds")).is_err(), "not a run flag");
    }

    /// Each malformed topology is refused with the bound it breaks, where
    /// the generator would panic; one spec of every form is accepted.
    #[test]
    fn topologies_are_built_or_refused_with_their_bound() {
        for (spec, bound) in [
            ("ring:1", "N >= 3"),
            ("ring:2", "N >= 3"),
            ("star:0", "N >= 2"),
            ("star:1", "N >= 2"),
            ("caterpillar:0:2", "S >= 1"),
            ("grid:0x5", "R, C >= 1"),
            ("torus:2x2", "R, C >= 3"),
            ("torus:1x3", "R, C >= 3"),
            ("torus:2x3", "R, C >= 3"),
            ("line:0", "N >= 1"),
        ] {
            let err = parse_topology(spec, 1).unwrap_err();
            assert!(err.contains(bound), "{spec}: {err}");
        }
        for (spec, n) in [
            ("line:5", 5),
            ("ring:3", 3),
            ("star:2", 2),
            ("caterpillar:3:2", 9),
            ("grid:4x5", 20),
            ("grid:4:5", 20),
            ("torus:3x4", 12),
            ("torus:3:4", 12),
            ("hypercube:3", 8),
            ("random:12,0.5", 12),
        ] {
            assert_eq!(parse_topology(spec, 1).map(|g| g.n()), Ok(n), "{spec}");
        }
        for spec in [
            "hypercube:0",
            "hypercube:17",
            "random:5,1.5",
            "grid:4",
            "mesh:4",
        ] {
            assert!(parse_topology(spec, 1).is_err(), "{spec}");
        }
    }

    /// A run description that is no run is refused before anything is
    /// launched: too small a graph, a client flag without `--clients`, a
    /// client load that cannot pace.
    #[test]
    fn spec_refuses_what_is_no_run() {
        let spec = |line: &str| {
            parse(words(line))?.spec(ListenSpec::Tcp, None, RunMode::Inproc, Duration::ZERO)
        };
        for (line, why) in [
            ("--topology line:1", "(want at least 2 nodes)"),
            ("--topology grid:1x1", "(want at least 2 nodes)"),
            ("--client-load closed:1:3", "needs --clients N, N >= 1"),
            ("--client-mutation dup-stamp", "needs --clients N, N >= 1"),
            ("--clients 0", "needs --clients N, N >= 1"),
            ("--clients 5 --client-load open:0:2", "finite open rate > 0"),
        ] {
            let err = spec(line).unwrap_err();
            assert!(err.contains(why), "{line}: {err}");
        }
        let run =
            spec("--topology line:5 --clients 50 --seed 3 --faults 1 --partition 5:15").unwrap();
        assert_eq!(run.chaos.seed, 3 ^ 0xC4A0_5C4A_05C4_A05C);
        assert_eq!(
            run.chaos.partition,
            Some(pick_partition(&run.graph, 3, 5, 15))
        );
        let clients = run.clients.unwrap();
        assert_eq!((clients.clients, clients.load.messages), (50, 2));
        assert!(run.shards >= 1);
    }
}
