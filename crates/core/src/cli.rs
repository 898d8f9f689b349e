//! What the workspace's binaries share at their edges: one argv parser
//! ([`Args`], [`Tool`]) and one JSON string encoder ([`json_string`]).
//!
//! A walk over [`Args`] returns `Err` with a message; [`Tool::parse`] turns
//! it into `<tool>: <msg>` and exit 2, so library code (the cluster's
//! `--node-worker` argv) can walk an [`Args::new`] of its own.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// What `-h` / `--help` and `--version` end a walk for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    Help,
    Version,
}

/// A command line, walked one word at a time.
#[derive(Debug)]
pub struct Args {
    words: std::vec::IntoIter<String>,
    /// The word [`Args::next_flag`] returned last: the flag a value belongs to.
    flag: String,
    stop: Option<Stop>,
}

impl Args {
    /// The command line `words`.
    pub fn new(words: impl IntoIterator<Item = String>) -> Args {
        Args {
            words: words.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            stop: None,
        }
    }

    /// Whether the line starts with the mode word `word`, which is then
    /// consumed.
    pub fn mode(&mut self, word: &str) -> bool {
        let found = self.words.as_slice().first().is_some_and(|w| w == word);
        if found {
            self.words.next();
        }
        found
    }

    /// The words not walked yet.
    pub fn rest(&mut self) -> Vec<String> {
        self.words.by_ref().collect()
    }

    /// The next word — a flag or a positional argument — or `None` at the
    /// end of the line and at `-h`, `--help` or `--version`.
    pub fn next_flag(&mut self) -> Option<String> {
        let word = self.words.next()?;
        self.stop = match word.as_str() {
            "-h" | "--help" => Some(Stop::Help),
            "--version" => Some(Stop::Version),
            _ => None,
        };
        self.flag.clone_from(&word);
        self.stop.is_none().then_some(word)
    }

    /// The value after the current flag.
    pub fn value(&mut self) -> Result<String, String> {
        self.words
            .next()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The value after the current flag, read as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value()?;
        parse(&self.flag, &v)
    }

    /// The error for a current word the walker does not know.
    pub fn unknown(&self) -> String {
        format!("unknown argument `{}`", self.flag)
    }
}

/// Reads `v`, the value of `what` (a flag, or a positional argument's
/// name), as a `T`.
pub fn parse<T: FromStr>(what: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse()
        .map_err(|e| format!("bad {what} value `{v}`: {e}"))
}

/// A binary's name and its usage text.
#[derive(Clone, Copy, Debug)]
pub struct Tool {
    /// The name messages start with, and `--version` prints.
    pub name: &'static str,
    /// What `-h` / `--help` prints.
    pub usage: &'static str,
}

impl Tool {
    /// Walks the process's command line with `parse`. `-h` / `--help`
    /// prints the usage and `--version` the name and workspace version,
    /// both on stdout, and exits 0; an `Err` exits through [`Tool::die`].
    pub fn parse<T>(&self, parse: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
        let mut args = Args::new(std::env::args().skip(1));
        let parsed = parse(&mut args);
        match args.stop {
            Some(Stop::Help) => println!("{}", self.usage),
            Some(Stop::Version) => println!("{} {}", self.name, env!("CARGO_PKG_VERSION")),
            None => return parsed.unwrap_or_else(|e| self.die(&e)),
        }
        std::process::exit(0)
    }

    /// Prints `<tool>: <msg>` on stderr and exits 2, the usage-error code.
    pub fn die(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(2)
    }
}

/// `s` as a JSON string: quoted, with `"`, `\` and every control
/// character U+0000–U+001F escaped (`\n`, `\r` and `\t` by name, the rest
/// as `\u00XX`). Everything else, non-ASCII included, passes through.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[derive(Debug, Default, PartialEq)]
    struct Opts {
        quick: bool,
        threads: usize,
        only: Vec<String>,
        seed: u64,
    }

    /// A walker with a boolean flag, a typed flag, a repeated flag and one
    /// positional argument.
    fn walk(args: &mut Args) -> Result<Opts, String> {
        let mut opts = Opts::default();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--quick" => opts.quick = true,
                "--threads" => opts.threads = args.parse()?,
                "--only" => opts.only.push(args.value()?),
                word if !word.starts_with('-') => opts.seed = parse("seed", word)?,
                _ => return Err(args.unknown()),
            }
        }
        Ok(opts)
    }

    #[test]
    fn flags_values_repeats_and_a_positional() {
        let opts = walk(&mut Args::new(words(
            "7 --quick --threads 3 --only a --only b",
        )))
        .unwrap();
        assert_eq!(
            opts,
            Opts {
                quick: true,
                threads: 3,
                only: vec!["a".into(), "b".into()],
                seed: 7,
            }
        );
    }

    #[test]
    fn a_missing_value_a_bad_number_and_an_unknown_flag_are_errors() {
        let err = |line| walk(&mut Args::new(words(line))).unwrap_err();
        assert_eq!(err("--quick --threads"), "--threads needs a value");
        assert_eq!(
            err("--threads x"),
            "bad --threads value `x`: invalid digit found in string"
        );
        assert_eq!(
            err("seven"),
            "bad seed value `seven`: invalid digit found in string"
        );
        assert_eq!(err("--bogus 1"), "unknown argument `--bogus`");
    }

    /// The walk ends at `-h`, `--help` or `--version` and says which; a
    /// flag's value is never taken for one.
    #[test]
    fn help_and_version_end_the_walk() {
        let stop = |line| {
            let mut args = Args::new(words(line));
            let opts = walk(&mut args);
            (opts.map(|o| o.only), args.stop)
        };
        assert_eq!(
            stop("--only a -h --bogus"),
            (Ok(vec!["a".into()]), Some(Stop::Help))
        );
        assert_eq!(stop("--help"), (Ok(vec![]), Some(Stop::Help)));
        assert_eq!(stop("--version"), (Ok(vec![]), Some(Stop::Version)));
        assert_eq!(stop("--only --help"), (Ok(vec!["--help".into()]), None));
        assert_eq!(stop("--bogus --help").1, None);
    }

    #[test]
    fn a_mode_word_leads_and_the_rest_is_handed_on() {
        let mut args = Args::new(words("--node-worker --id 2"));
        assert!(!args.mode("--other"));
        assert!(args.mode("--node-worker"));
        assert_eq!(args.rest(), words("--id 2"));
        assert!(!Args::new(words("--id --node-worker")).mode("--node-worker"));
        assert!(!Args::new(Vec::new()).mode("--node-worker"));
    }

    #[test]
    fn json_string_escapes_every_control_character() {
        assert_eq!(json_string(""), "\"\"");
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("x\ny\rz\t"), r#""x\ny\rz\t""#);
        for c in (0u8..0x20).map(char::from) {
            let s = json_string(&c.to_string());
            let named = match c {
                '\n' => "\\n".to_string(),
                '\r' => "\\r".to_string(),
                '\t' => "\\t".to_string(),
                c => format!("\\u{:04x}", c as u32),
            };
            assert_eq!(s, format!("\"{named}\""), "U+{:04X}", c as u32);
            assert!(!s.chars().any(|c| c < ' '));
        }
        assert_eq!(json_string("\u{1f}\u{7f}"), "\"\\u001f\u{7f}\"");
    }

    #[test]
    fn json_string_passes_non_ascii_through() {
        assert_eq!(json_string("Δ ≤ 2 — Erdős"), "\"Δ ≤ 2 — Erdős\"");
        assert_eq!(json_string("🦀"), "\"🦀\"");
    }
}
