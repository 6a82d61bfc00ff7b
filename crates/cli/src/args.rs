//! Minimal flag parsing (positional arguments plus `--flag value`
//! pairs) — enough for this tool without pulling in a CLI framework.

use std::collections::BTreeMap;
use std::str::FromStr;

/// Flags that take no value (`--ideal` style).
const BOOLEAN_FLAGS: &[&str] = &[
    "ideal",
    "fu",
    "check",
    "statsim",
    "frontier",
    "local",
    "seq",
    "verify",
    "once",
    "json",
    "no-telemetry",
];

/// Parsed command-line arguments: positionals in order, flags by name.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Parsed {
    /// Splits `args` into positionals and `--flag value` pairs
    /// (`-o` is accepted as an alias for `--out`).
    pub fn new(args: &[String]) -> Result<Self, String> {
        let mut parsed = Parsed::default();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    parsed.flags.insert(name.to_string(), "true".into());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                parsed.flags.insert(name.to_string(), value.clone());
            } else if arg == "-o" {
                let value = iter.next().ok_or("flag -o needs a value")?;
                parsed.flags.insert("out".into(), value.clone());
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }

    /// An optional string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A flag parsed into `T`, or `default` when absent.
    pub fn flag_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }

    /// A comma-separated `--{name}` list of `u32` values, or `default`
    /// when the flag is absent.
    pub fn u32_list(&self, name: &str, default: &[u32]) -> Result<Vec<u32>, String> {
        match self.flag(name) {
            None => Ok(default.to_vec()),
            Some(raw) => raw
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad value in --{name}: {e}"))
                })
                .collect(),
        }
    }

    /// Whether the boolean `--ideal` style flag is set.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Parsed::new(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let p = parse(&["trace.trc", "--width", "8", "-o", "out.json"]);
        assert_eq!(p.positional(0, "trace").unwrap(), "trace.trc");
        assert_eq!(p.flag("out"), Some("out.json"));
        assert_eq!(p.flag_or("width", 4u32).unwrap(), 8);
        assert_eq!(p.flag_or("depth", 5u32).unwrap(), 5);
    }

    #[test]
    fn boolean_ideal_flag() {
        let p = parse(&["t.trc", "--ideal"]);
        assert!(p.has("ideal"));
        assert_eq!(p.positional(0, "trace").unwrap(), "t.trc");
    }

    #[test]
    fn boolean_validate_flags_take_no_value() {
        let p = parse(&["--check", "--statsim", "--insts", "5000"]);
        assert!(p.has("check"));
        assert!(p.has("statsim"));
        assert_eq!(p.flag_or("insts", 0u64).unwrap(), 5_000);
    }

    #[test]
    fn adjacent_boolean_flags_do_not_eat_each_other() {
        // `fosm top --once --json` and `serve --no-telemetry --port-file P`
        // both rely on boolean flags never consuming the next token.
        let p = parse(&["--once", "--json", "--addr", "a:1"]);
        assert!(p.has("once"));
        assert!(p.has("json"));
        assert_eq!(p.flag("addr"), Some("a:1"));
        let p = parse(&["--no-telemetry", "--port-file", "p"]);
        assert!(p.has("no-telemetry"));
        assert_eq!(p.flag("port-file"), Some("p"));
    }

    #[test]
    fn u32_lists_parse_or_default() {
        let p = parse(&["--widths", "2, 4,8"]);
        assert_eq!(p.u32_list("widths", &[1]).unwrap(), vec![2, 4, 8]);
        assert_eq!(p.u32_list("robs", &[64]).unwrap(), vec![64]);
        assert!(p.u32_list("robs", &[]).unwrap().is_empty());
        let err = parse(&["--mems", "200,x"])
            .u32_list("mems", &[])
            .unwrap_err();
        assert!(err.contains("--mems"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = vec!["--width".to_string()];
        assert!(Parsed::new(&args).is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let p = parse(&["--width", "lots"]);
        let err = p.flag_or("width", 4u32).unwrap_err();
        assert!(err.contains("--width"));
    }

    #[test]
    fn missing_positional_reports_description() {
        let p = parse(&[]);
        assert!(p
            .positional(0, "trace file")
            .unwrap_err()
            .contains("trace file"));
    }
}
