//! Minimal dependency-free argument parsing for the `skyward` CLI.
//!
//! Supports `--flag value`, `--flag=value` and positional arguments; the
//! command grammar itself lives in `main.rs`.

use std::collections::BTreeMap;

/// Parsed command-line arguments: positionals in order, flags by name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Error parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A `--flag` appeared with no value.
    MissingValue(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending raw value.
        value: String,
        /// Expected type description.
        expected: String,
    },
    /// A flag the command does not read.
    UnknownFlag {
        /// Flag name.
        flag: String,
        /// The flags the command reads.
        accepted: &'static [&'static str],
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingValue(flag) => write!(f, "--{flag} requires a value"),
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag}={value:?} is not a valid {expected}")
            }
            ArgsError::UnknownFlag { flag, accepted: [] } => {
                write!(f, "unknown flag --{flag}; this command takes no flags")
            }
            ArgsError::UnknownFlag { flag, accepted } => {
                let accepted = accepted.join(" --");
                write!(
                    f,
                    "unknown flag --{flag}; this command accepts --{accepted}"
                )
            }
        }
    }
}

impl std::error::Error for ArgsError {}

/// The CLI reports every error as text.
impl From<ArgsError> for String {
    fn from(e: ArgsError) -> String {
        e.to_string()
    }
}

impl Args {
    /// Parse raw arguments, treating the named flags as boolean
    /// *switches*: `--all` stores `"true"` without consuming the next
    /// token (while `--all=no` still records the explicit value).
    pub fn parse_with_switches<I: IntoIterator<Item = String>>(
        raw: I,
        switches: &[&str],
    ) -> Result<Args, ArgsError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(flag) = token.strip_prefix("--") {
                if let Some((name, value)) = flag.split_once('=') {
                    args.flags.insert(name.to_string(), value.to_string());
                } else if switches.contains(&flag) {
                    args.flags.insert(flag.to_string(), "true".to_string());
                } else {
                    match iter.next() {
                        Some(value) => {
                            args.flags.insert(flag.to_string(), value);
                        }
                        None => return Err(ArgsError::MissingValue(flag.to_string())),
                    }
                }
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// Positional argument by index.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(|s| s.as_str())
    }

    /// Number of positionals.
    pub fn n_positionals(&self) -> usize {
        self.positionals.len()
    }

    /// Reject any flag outside `accepted`, so a typo such as `--sed 7`
    /// fails instead of running with the default.
    pub fn expect_flags(&self, accepted: &'static [&'static str]) -> Result<(), ArgsError> {
        match self.flags.keys().find(|f| !accepted.contains(&f.as_str())) {
            None => Ok(()),
            Some(flag) => Err(ArgsError::UnknownFlag {
                flag: flag.clone(),
                accepted,
            }),
        }
    }

    /// Raw string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Integer flag with default.
    pub fn flag_u64(&self, name: &str, default: u64) -> Result<u64, ArgsError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: name.to_string(),
                value: v.clone(),
                expected: "integer".to_string(),
            }),
        }
    }

    /// Count flag with default: an integer in `1..=max`. Counts size
    /// buffers and loops, so zero and anything past `max` are rejected
    /// before any work starts.
    pub fn flag_count(&self, name: &str, default: u64, max: u64) -> Result<u64, ArgsError> {
        let n = self.flag_u64(name, default)?;
        if (1..=max).contains(&n) {
            return Ok(n);
        }
        Err(ArgsError::BadValue {
            flag: name.to_string(),
            value: n.to_string(),
            expected: format!("count in 1..={max}"),
        })
    }

    /// Comma-separated list flag.
    pub fn flag_list(&self, name: &str) -> Vec<String> {
        self.flags
            .get(name)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse_with_switches(tokens.iter().map(|s| s.to_string()), &[]).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let args = parse(&["characterize", "us-west-1b", "--polls", "6", "--seed=9"]);
        assert_eq!(args.positional(0), Some("characterize"));
        assert_eq!(args.positional(1), Some("us-west-1b"));
        assert_eq!(args.n_positionals(), 2);
        assert_eq!(args.flag_u64("polls", 4).unwrap(), 6);
        assert_eq!(args.flag_u64("seed", 42).unwrap(), 9);
        assert_eq!(args.flag_u64("missing", 7).unwrap(), 7);
    }

    #[test]
    fn list_flag() {
        let args = parse(&["route", "--candidates", "a, b,c,"]);
        assert_eq!(args.flag_list("candidates"), vec!["a", "b", "c"]);
        assert!(args.flag_list("none").is_empty());
    }

    #[test]
    fn switches_are_bare() {
        let args = Args::parse_with_switches(
            ["exp", "run", "--all", "--scale", "quick", "--json"]
                .iter()
                .map(|s| s.to_string()),
            &["all", "json"],
        )
        .unwrap();
        assert_eq!(args.flag("all"), Some("true"));
        assert_eq!(args.flag("json"), Some("true"));
        assert_eq!(args.flag("scale"), Some("quick"));
        assert_eq!(args.n_positionals(), 2);
    }

    #[test]
    fn missing_value_rejected() {
        let err = Args::parse_with_switches(["--polls".to_string()], &[]).unwrap_err();
        assert_eq!(err, ArgsError::MissingValue("polls".into()));
    }

    #[test]
    fn bad_integer_rejected() {
        let args = parse(&["--polls", "six"]);
        assert!(matches!(
            args.flag_u64("polls", 1),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn counts_are_bounded() {
        let args = parse(&[
            "--polls", "3", "--runs", "0", "--burst", "100001", "--n", "x",
        ]);
        assert_eq!(args.flag_count("polls", 6, 1_000), Ok(3));
        assert_eq!(args.flag_count("missing", 6, 1_000), Ok(6));
        assert_eq!(args.flag_count("burst", 400, 100_001), Ok(100_001));
        let err = args.flag_count("runs", 600, 100_000).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"--runs="0" is not a valid count in 1..=100000"#
        );
        assert!(matches!(
            args.flag_count("burst", 400, 100_000),
            Err(ArgsError::BadValue { .. })
        ));
        assert!(matches!(
            args.flag_count("n", 1, 10),
            Err(ArgsError::BadValue { .. })
        ));
        let huge = parse(&["--polls", "99999999999"]);
        assert!(matches!(
            huge.flag_count("polls", 6, 1_000),
            Err(ArgsError::BadValue { .. })
        ));
    }
}
